//! Property-based tests of the e-graph engine: congruence-closure invariants
//! under random add/union workloads, agreement of the incrementally
//! maintained parent lists with a from-scratch scan, and soundness of
//! rewriting.

// Helper fns here run outside #[test] context, so the clippy.toml
// test relaxation does not reach them.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use audit::AuditLevel;
use egraph::{audit_egraph, EGraph, FxHashMap, Id, Language, RecExpr, Rewrite, Runner, SymbolLang};
use proptest::prelude::*;

/// Every e-graph invariant, through the typed auditor with all of its rules
/// on; the failure text lists each diagnostic.
fn check_invariants<L: Language>(egraph: &EGraph<L>) -> Result<(), String> {
    let report = audit_egraph(egraph, AuditLevel::Paranoid);
    if report.is_clean() {
        Ok(())
    } else {
        Err(report.to_string())
    }
}

#[derive(Debug, Clone)]
enum Op {
    Leaf(u8),
    Node(u8, usize, usize),
    Union(usize, usize),
}

fn workload() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        (0u8..6).prop_map(Op::Leaf),
        (0u8..4, 0usize..1000, 0usize..1000).prop_map(|(o, a, b)| Op::Node(o, a, b)),
        (0usize..1000, 0usize..1000).prop_map(|(a, b)| Op::Union(a, b)),
    ];
    proptest::collection::vec(op, 5..80)
}

fn apply(ops: &[Op]) -> (EGraph<SymbolLang>, Vec<Id>) {
    let mut egraph: EGraph<SymbolLang> = EGraph::new();
    let mut ids: Vec<Id> = vec![egraph.add(SymbolLang::leaf("seed"))];
    for op in ops {
        match op {
            Op::Leaf(l) => ids.push(egraph.add(SymbolLang::leaf(format!("v{l}")))),
            Op::Node(o, a, b) => {
                let a = ids[a % ids.len()];
                let b = ids[b % ids.len()];
                ids.push(egraph.add(SymbolLang::new(format!("f{o}"), vec![a, b])));
            }
            Op::Union(a, b) => {
                let a = ids[a % ids.len()];
                let b = ids[b % ids.len()];
                egraph.union(a, b);
            }
        }
    }
    (egraph, ids)
}

/// Builds the parent index the slow, obviously-correct way: a full scan of
/// every class's (canonical) node list. [`EGraph::parent_index`] instead
/// canonicalizes the per-class parent lists the e-graph maintains on
/// `add`/`union`; the two must agree on a clean graph.
fn scan_parent_index(egraph: &EGraph<SymbolLang>) -> FxHashMap<Id, Vec<(Id, SymbolLang)>> {
    let mut parents: FxHashMap<Id, Vec<(Id, SymbolLang)>> = FxHashMap::default();
    for class in egraph.classes() {
        for node in class.iter() {
            for &child in node.children() {
                parents
                    .entry(egraph.find(child))
                    .or_default()
                    .push((class.id, node.clone()));
            }
        }
    }
    for list in parents.values_mut() {
        list.sort_unstable();
        list.dedup();
    }
    parents
}

fn assert_parent_index_agrees(egraph: &EGraph<SymbolLang>) -> Result<(), TestCaseError> {
    let mut incremental = egraph.parent_index();
    for list in incremental.values_mut() {
        list.sort_unstable();
    }
    let scanned = scan_parent_index(egraph);
    prop_assert_eq!(
        incremental,
        scanned,
        "incrementally maintained parent lists diverge from a full scan"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn rebuild_restores_invariants(ops in workload()) {
        let (mut egraph, ids) = apply(&ops);
        egraph.rebuild();
        prop_assert!(check_invariants(&egraph).is_ok(), "{:?}", check_invariants(&egraph));
        // find() of every id stays within the graph and is canonical.
        for &id in &ids {
            let root = egraph.find(id);
            prop_assert_eq!(egraph.find(root), root);
            prop_assert!(egraph.get_class(root).is_some());
        }
        assert_parent_index_agrees(&egraph)?;
    }

    /// Randomized saturation runs: the invariants (and the parent-list /
    /// full-scan agreement) must hold after *every* rebuild, not only at the
    /// end of the run.
    #[test]
    fn invariants_hold_after_every_rebuild_during_saturation(
        depth in 1usize..5,
        seed in 0u64..500,
        iters in 1usize..5,
    ) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || { state ^= state << 13; state ^= state >> 7; state ^= state << 17; state };
        fn gen(depth: usize, next: &mut impl FnMut() -> u64, out: &mut String) {
            if depth == 0 || next().is_multiple_of(3) {
                out.push_str(match next() % 4 { 0 => "a", 1 => "b", 2 => "0", _ => "1" });
            } else {
                let op = if next().is_multiple_of(2) { "&" } else { "|" };
                out.push_str(&format!("({op} "));
                gen(depth - 1, next, out);
                out.push(' ');
                gen(depth - 1, next, out);
                out.push(')');
            }
        }
        let mut text = String::new();
        gen(depth, &mut next, &mut text);
        let expr: RecExpr<SymbolLang> = text.parse().unwrap();
        // A Boolean-flavored rule set over the logic operators.
        let rules = vec![
            Rewrite::parse("comm-and", "(& ?x ?y)", "(& ?y ?x)").unwrap(),
            Rewrite::parse("comm-or", "(| ?x ?y)", "(| ?y ?x)").unwrap(),
            Rewrite::parse("and-one", "(& ?x 1)", "?x").unwrap(),
            Rewrite::parse("or-zero", "(| ?x 0)", "?x").unwrap(),
            Rewrite::parse("and-zero", "(& ?x 0)", "0").unwrap(),
            Rewrite::parse("or-one", "(| ?x 1)", "1").unwrap(),
            Rewrite::parse("idem-and", "(& ?x ?x)", "?x").unwrap(),
            Rewrite::parse("absorb", "(& ?x (| ?x ?y))", "?x").unwrap(),
        ];
        let mut egraph: EGraph<SymbolLang> = EGraph::new();
        egraph.add_expr(&expr);
        egraph.rebuild();
        check_invariants(&egraph).map_err(TestCaseError)?;
        for _ in 0..iters {
            for rule in &rules {
                rule.run(&mut egraph, 200);
                egraph.rebuild();
                check_invariants(&egraph).map_err(TestCaseError)?;
            }
            assert_parent_index_agrees(&egraph)?;
        }
    }

    #[test]
    fn rebuild_is_idempotent(ops in workload()) {
        let (mut egraph, _) = apply(&ops);
        egraph.rebuild();
        let classes = egraph.num_classes();
        let nodes = egraph.total_nodes();
        let extra = egraph.rebuild();
        prop_assert_eq!(extra, 0);
        prop_assert_eq!(egraph.num_classes(), classes);
        prop_assert_eq!(egraph.total_nodes(), nodes);
    }

    #[test]
    fn congruence_is_maintained(ops in workload()) {
        let (mut egraph, ids) = apply(&ops);
        egraph.rebuild();
        // For every pair of equivalent ids, wrapping both in the same operator
        // must produce equivalent results after rebuilding.
        let a = ids[0];
        let b = *ids.last().unwrap();
        let fa = egraph.add(SymbolLang::new("wrap", vec![a]));
        let fb = egraph.add(SymbolLang::new("wrap", vec![b]));
        if egraph.same(a, b) {
            egraph.rebuild();
            prop_assert!(egraph.same(fa, fb));
        }
    }

    #[test]
    fn saturation_keeps_the_original_term(
        depth in 1usize..5,
        seed in 0u64..500,
    ) {
        // Build a random expression, saturate with commutativity/identity
        // rules, and check that every node of the input is still in the
        // e-graph, the whole term in the root's class.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || { state ^= state << 13; state ^= state >> 7; state ^= state << 17; state };
        fn gen(depth: usize, next: &mut impl FnMut() -> u64, out: &mut String) {
            if depth == 0 || next().is_multiple_of(3) {
                out.push_str(match next() % 4 { 0 => "a", 1 => "b", 2 => "0", _ => "1" });
            } else {
                let op = if next().is_multiple_of(2) { "+" } else { "*" };
                out.push_str(&format!("({op} "));
                gen(depth - 1, next, out);
                out.push(' ');
                gen(depth - 1, next, out);
                out.push(')');
            }
        }
        let mut text = String::new();
        gen(depth, &mut next, &mut text);
        let expr: RecExpr<SymbolLang> = text.parse().unwrap();
        let rules = vec![
            Rewrite::parse("comm-add", "(+ ?x ?y)", "(+ ?y ?x)").unwrap(),
            Rewrite::parse("comm-mul", "(* ?x ?y)", "(* ?y ?x)").unwrap(),
            Rewrite::parse("add-zero", "(+ ?x 0)", "?x").unwrap(),
            Rewrite::parse("mul-one", "(* ?x 1)", "?x").unwrap(),
            Rewrite::parse("mul-zero", "(* ?x 0)", "0").unwrap(),
        ];
        let runner = Runner::default()
            .with_expr(&expr)
            .with_iter_limit(6)
            .with_node_limit(5_000)
            .run(&rules);
        let mut ids: Vec<Id> = Vec::with_capacity(expr.len());
        for node in expr.as_ref() {
            let node = node.map_children(|c| ids[c.index()]);
            let id = runner.egraph.lookup(&node);
            prop_assert!(id.is_some(), "{node:?} of {expr} left the e-graph");
            ids.push(id.unwrap());
        }
        prop_assert_eq!(ids.last().copied(), Some(runner.roots[0]));
        check_invariants(&runner.egraph).unwrap();
    }
}
