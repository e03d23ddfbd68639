//! Boolean rewrite rules (paper Table I plus standard auxiliary identities).
//!
//! All rules are sound Boolean identities; applying them with equality
//! saturation only *adds* equivalent structures to the e-graph, which is what
//! gives E-morphic its structural-exploration power. The default E-morphic
//! configuration runs these for a small number of iterations (5 in the
//! paper) rather than to saturation.

use crate::lang::BoolLang;
use egraph::Rewrite;

fn rule(name: &str, lhs: &str, rhs: &str) -> Rewrite<BoolLang> {
    // A malformed built-in rule is a programming error caught by the unit
    // tests that instantiate every rule table.
    #[allow(clippy::panic)]
    Rewrite::parse(name, lhs, rhs).unwrap_or_else(|e| panic!("rule {name} failed to parse: {e}"))
}

/// The rewrite rules listed in Table I of the paper: commutativity,
/// associativity, distributivity, consensus and De Morgan.
pub fn table1_rules() -> Vec<Rewrite<BoolLang>> {
    vec![
        // Commutativity.
        rule("comm-and", "(& ?a ?b)", "(& ?b ?a)"),
        rule("comm-or", "(| ?a ?b)", "(| ?b ?a)"),
        // Associativity.
        rule("assoc-and", "(& (& ?a ?b) ?c)", "(& ?a (& ?b ?c))"),
        rule("assoc-and-rev", "(& ?a (& ?b ?c))", "(& (& ?a ?b) ?c)"),
        rule("assoc-or", "(| (| ?a ?b) ?c)", "(| ?a (| ?b ?c))"),
        rule("assoc-or-rev", "(| ?a (| ?b ?c))", "(| (| ?a ?b) ?c)"),
        // Distributivity (both factorings).
        rule(
            "distribute-and",
            "(& ?a (| ?b ?c))",
            "(| (& ?a ?b) (& ?a ?c))",
        ),
        rule("factor-and", "(| (& ?a ?b) (& ?a ?c))", "(& ?a (| ?b ?c))"),
        rule(
            "distribute-or",
            "(| ?a (& ?b ?c))",
            "(& (| ?a ?b) (| ?a ?c))",
        ),
        rule("factor-or", "(& (| ?a ?b) (| ?a ?c))", "(| ?a (& ?b ?c))"),
        // Consensus.
        rule(
            "consensus-sop",
            "(| (| (& ?a ?b) (& (! ?a) ?c)) (& ?b ?c))",
            "(| (& ?a ?b) (& (! ?a) ?c))",
        ),
        rule(
            "consensus-pos",
            "(& (& (| ?a ?b) (| (! ?a) ?c)) (| ?b ?c))",
            "(& (| ?a ?b) (| (! ?a) ?c))",
        ),
        // De Morgan.
        rule("demorgan-and", "(! (& ?a ?b))", "(| (! ?a) (! ?b))"),
        rule("demorgan-or", "(! (| ?a ?b))", "(& (! ?a) (! ?b))"),
    ]
}

/// Auxiliary simplification rules: identity/annihilator constants,
/// idempotence, complementation, absorption and double negation. These keep
/// the e-graph from filling up with trivially reducible terms and let the
/// extractor find genuinely smaller circuits.
fn simplification_rules() -> Vec<Rewrite<BoolLang>> {
    vec![
        rule("and-true", "(& ?a true)", "?a"),
        rule("and-false", "(& ?a false)", "false"),
        rule("or-false", "(| ?a false)", "?a"),
        rule("or-true", "(| ?a true)", "true"),
        rule("and-idempotent", "(& ?a ?a)", "?a"),
        rule("or-idempotent", "(| ?a ?a)", "?a"),
        rule("and-complement", "(& ?a (! ?a))", "false"),
        rule("or-complement", "(| ?a (! ?a))", "true"),
        rule("absorb-and", "(& ?a (| ?a ?b))", "?a"),
        rule("absorb-or", "(| ?a (& ?a ?b))", "?a"),
        rule("double-negation", "(! (! ?a))", "?a"),
        rule("demorgan-and-rev", "(| (! ?a) (! ?b))", "(! (& ?a ?b))"),
        rule("demorgan-or-rev", "(& (! ?a) (! ?b))", "(! (| ?a ?b))"),
    ]
}

/// The full rule set used by the E-morphic flow.
pub fn all_rules() -> Vec<Rewrite<BoolLang>> {
    let mut rules = table1_rules();
    rules.extend(simplification_rules());
    rules
}

/// A deterministic 64-bit identifier of [`all_rules`]: a hash of every
/// rule's name and both pattern spellings, in order. It changes whenever a
/// rule is added, removed, renamed, reordered or edited, so content-addressed
/// caches keyed on it can never serve results across rule-set revisions.
/// Fixed mixing constants (no per-process hasher seeds) keep the id stable
/// across runs and machines.
pub fn rule_set_id() -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut acc: u64 = all_rules().len() as u64;
    let mut mix = |s: &str| {
        for b in s.as_bytes() {
            acc = (acc.rotate_left(5) ^ u64::from(*b)).wrapping_mul(K);
        }
        acc = (acc.rotate_left(5) ^ 0xff).wrapping_mul(K);
    };
    for rw in all_rules() {
        mix(&rw.name);
        mix(&rw.lhs.to_string());
        mix(&rw.rhs.to_string());
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{CostGraph, ExtractionCost};
    use crate::lang::eval_expr;
    use egraph::{EGraph, Id, RecExpr, Runner, Scheduler};

    /// The gate count of the size-optimal term of `root`, and the term.
    fn smallest(egraph: &EGraph<BoolLang>, root: Id) -> (u64, RecExpr<BoolLang>) {
        let graph = CostGraph::new(egraph);
        let (selection, costs, _) = graph.bottom_up(ExtractionCost::Size).into_parts();
        (
            costs[&root],
            selection.try_to_recexpr(egraph, root).unwrap(),
        )
    }

    /// Every rule must be a sound Boolean identity: check LHS == RHS by
    /// substituting all assignments of concrete variables for the pattern
    /// variables (up to 3 pattern variables per rule).
    #[test]
    fn every_rule_is_a_boolean_identity() {
        for rw in all_rules() {
            let vars = rw.lhs.vars();
            assert!(vars.len() <= 3, "rule {} uses too many variables", rw.name);
            // Instantiate pattern variables with concrete inputs x0, x1, x2.
            let lhs_str = pattern_to_concrete(&rw.lhs.to_string(), &vars);
            let rhs_str = pattern_to_concrete(&rw.rhs.to_string(), &vars);
            let lhs: RecExpr<BoolLang> = lhs_str.parse().unwrap();
            let rhs: RecExpr<BoolLang> = rhs_str.parse().unwrap();
            for assignment in 0..(1usize << vars.len().max(1)) {
                let inputs: Vec<bool> = (0..3).map(|i| assignment >> i & 1 == 1).collect();
                assert_eq!(
                    eval_expr(&lhs, &inputs),
                    eval_expr(&rhs, &inputs),
                    "rule {} is unsound on assignment {assignment:b}",
                    rw.name
                );
            }
        }
    }

    fn pattern_to_concrete(pattern: &str, vars: &[egraph::Var]) -> String {
        let mut out = pattern.to_string();
        for (i, var) in vars.iter().enumerate() {
            out = out.replace(&var.to_string(), &format!("x{i}"));
        }
        out
    }

    #[test]
    fn rule_set_is_send_and_sync() {
        // The Runner's parallel search shares `&[Rewrite<BoolLang>]` across
        // scoped worker threads; every rule must therefore be `Send + Sync`
        // (rules are plain pattern data, so this is a compile-time audit).
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        let rules = all_rules();
        assert_send_sync(&rules);
        assert!(!rules.is_empty());
    }

    #[test]
    fn table1_has_all_five_rule_classes() {
        let names: Vec<String> = table1_rules().iter().map(|r| r.name.clone()).collect();
        for prefix in ["comm", "assoc", "distribute", "consensus", "demorgan"] {
            assert!(
                names.iter().any(|n| n.starts_with(prefix)),
                "missing rule class {prefix}"
            );
        }
        assert_eq!(table1_rules().len(), 14);
    }

    #[test]
    fn saturation_simplifies_absorption_example() {
        // a * (a + b) => a (Fig. 5's "Covering" example).
        let expr: RecExpr<BoolLang> = "(& x0 (| x0 x1))".parse().unwrap();
        let runner = Runner::default()
            .with_expr(&expr)
            .with_iter_limit(6)
            .run(&all_rules());
        let (gates, best) = smallest(&runner.egraph, runner.roots[0]);
        assert_eq!(best.to_string(), "x0");
        assert_eq!(gates, 0);
    }

    #[test]
    fn distributivity_exposes_factored_form() {
        // x*y + x*z (three gates) has a two-gate factored equivalent x*(y+z).
        let expr: RecExpr<BoolLang> = "(| (& x0 x1) (& x0 x2))".parse().unwrap();
        let runner = Runner::default()
            .with_expr(&expr)
            .with_iter_limit(4)
            .run(&all_rules());
        let (gates, best) = smallest(&runner.egraph, runner.roots[0]);
        assert!(gates <= 2, "expected the factored form, got {best}");
    }

    #[test]
    fn few_iterations_generate_many_classes() {
        // The paper's key observation: a handful of iterations already
        // produces a large number of equivalence classes on a real cone.
        let expr: RecExpr<BoolLang> = "(| (& x0 (| x1 (& x2 x3))) (& (! x1) (| x4 (& x0 x5))))"
            .parse()
            .unwrap();
        let before_classes = {
            let mut eg = egraph::EGraph::<BoolLang>::new();
            eg.add_expr(&expr);
            eg.rebuild();
            eg.num_classes()
        };
        let runner = Runner::default()
            .with_expr(&expr)
            .with_iter_limit(5)
            .with_scheduler(Scheduler::Backoff {
                match_limit: 5_000,
                ban_length: 2,
            })
            .run(&all_rules());
        assert!(runner.egraph.num_classes() > before_classes);
        assert!(runner.egraph.total_nodes() > runner.egraph.num_classes());
    }
}
