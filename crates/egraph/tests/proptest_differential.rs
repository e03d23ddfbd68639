//! Differential property tests.
//!
//! 1. The incremental worklist rebuild ([`EGraph::rebuild`]) must agree with
//!    [`Closure`], a congruence closure computed from scratch over the test's
//!    own op log that shares no code with the e-graph, on every observable
//!    outcome — class partitions, canonical node forms, node and union
//!    counts — at every rebuild point of random interleavings of `add`,
//!    `union` and `rebuild`.
//! 2. The [`Runner`]'s parallel sharded search must be *bit-identical* to the
//!    serial path: identical per-iteration reports (matches found and applied,
//!    `search_complete`, node/class counts), stop reasons, and final class
//!    partitions for every thread count, across randomized rule sets and
//!    match budgets.
//! 3. The compiled matcher ([`Pattern::search_classes`]) must be *observably
//!    the interpreter it replaced*: the recursive pattern interpreter lives
//!    on below as [`Oracle`], and for random e-graphs, patterns, class
//!    sequences and match budgets the two must return the same matches in
//!    the same order with the same completeness flag.
//!
//! CI runs this file at `PROPTEST_CASES=1000` on every PR and at 5000 weekly
//! (`proptest-deep.yml`).

// Helper fns here run outside #[test] context, so the clippy.toml
// test relaxation does not reach them.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use audit::{audit_egraph, AuditLevel};
use egraph::{EGraph, Id, Language, MatchScratch, Pattern, Rewrite, Runner, Scheduler, SymbolLang};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

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
    Rebuild,
}

fn workload() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        (0u8..6).prop_map(Op::Leaf),
        (0u8..4, 0usize..1000, 0usize..1000).prop_map(|(o, a, b)| Op::Node(o, a, b)),
        (0usize..1000, 0usize..1000).prop_map(|(a, b)| Op::Union(a, b)),
        Just(Op::Rebuild),
    ];
    proptest::collection::vec(op, 5..120)
}

/// Replays a workload, rebuilding at every `Rebuild` op and once at the end.
/// Returns the final graph and the id returned by each add, in op order.
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
            Op::Rebuild => {
                egraph.rebuild();
            }
        }
    }
    egraph.rebuild();
    (egraph, ids)
}

/// The rebuild's oracle: the congruence closure of an op log, computed from
/// scratch and sharing no code with [`EGraph`]. Every add is an element of
/// its own — hash-consing is congruence too, of equal leaves and of equal
/// operators over congruent children — and a plain union-find over the add
/// indices merges each union's operands, then any two adds with the same
/// operator and congruent children, until a pass merges nothing.
struct Closure {
    /// Per add, in op order: its operator and the adds of its children.
    nodes: Vec<(String, Vec<usize>)>,
    parent: Vec<usize>,
}

impl Closure {
    fn new(ops: &[Op]) -> Closure {
        let mut nodes = vec![("seed".to_string(), Vec::new())];
        let mut unions = Vec::new();
        for op in ops {
            let n = nodes.len();
            match op {
                Op::Leaf(l) => nodes.push((format!("v{l}"), Vec::new())),
                Op::Node(o, a, b) => nodes.push((format!("f{o}"), vec![a % n, b % n])),
                Op::Union(a, b) => unions.push((a % n, b % n)),
                Op::Rebuild => {}
            }
        }
        let parent = (0..nodes.len()).collect();
        let mut closure = Closure { nodes, parent };
        for (a, b) in unions {
            closure.merge(a, b);
        }
        loop {
            let mut merged = false;
            let mut seen: BTreeMap<(String, Vec<usize>), usize> = BTreeMap::new();
            for i in 0..closure.nodes.len() {
                let (op, children) = &closure.nodes[i];
                let key = (
                    op.clone(),
                    children.iter().map(|&c| closure.find(c)).collect(),
                );
                match seen.get(&key) {
                    Some(&j) => merged |= closure.merge(i, j),
                    None => {
                        seen.insert(key, i);
                    }
                }
            }
            if !merged {
                return closure;
            }
        }
    }

    fn find(&self, mut i: usize) -> usize {
        while self.parent[i] != i {
            i = self.parent[i];
        }
        i
    }

    fn merge(&mut self, a: usize, b: usize) -> bool {
        let (a, b) = (self.find(a), self.find(b));
        self.parent[a] = b;
        a != b
    }

    /// Per class number, the distinct forms of its adds — operator over the
    /// numbers of the children's classes — in order.
    fn signatures(&self, numbering: &[usize]) -> BTreeMap<usize, Vec<(String, Vec<usize>)>> {
        let mut out: BTreeMap<usize, BTreeSet<(String, Vec<usize>)>> = BTreeMap::new();
        for (i, (op, children)) in self.nodes.iter().enumerate() {
            let children = children.iter().map(|&c| numbering[c]).collect();
            out.entry(numbering[i])
                .or_default()
                .insert((op.clone(), children));
        }
        out.into_iter()
            .map(|(class, forms)| (class, forms.into_iter().collect()))
            .collect()
    }
}

/// Where a replay of `ops` stands after a rebuild: past each `Rebuild` op,
/// and at the end. A prefix of the log replays to the graph the whole log
/// had there.
fn rebuild_points(ops: &[Op]) -> impl Iterator<Item = usize> + '_ {
    (1..=ops.len()).filter(|&end| end == ops.len() || matches!(ops[end - 1], Op::Rebuild))
}

/// Replays `ops` and holds the rebuilt e-graph to the closure of the same
/// log: the same partition of the adds, the same canonical forms class by
/// class, and node and union counts that agree with both.
fn matches_closure(ops: &[Op]) -> Result<(), TestCaseError> {
    let (egraph, ids) = apply(ops);
    let expected = Closure::new(ops);
    let (numbering, sequence) = renumber(ids.iter().map(|&id| egraph.find(id)));
    let (_, expected_sequence) = renumber((0..ids.len()).map(|i| expected.find(i)));
    prop_assert_eq!(&sequence, &expected_sequence, "class partitions diverge");
    let classes = numbering.len();
    prop_assert_eq!(egraph.num_classes(), classes, "class counts diverge");
    let forms = class_signatures(&egraph, &numbering);
    let signatures = expected.signatures(&expected_sequence);
    prop_assert_eq!(&forms, &signatures, "canonical forms diverge");
    let nodes: usize = signatures.values().map(Vec::len).sum();
    prop_assert_eq!(egraph.total_nodes(), nodes, "node counts diverge");
    // Each union that merged two classes retired one the adds created.
    let created = ids.iter().collect::<BTreeSet<_>>().len();
    prop_assert_eq!(egraph.num_unions(), created - classes, "unions diverge");
    Ok(())
}

/// Numbers the classes of the adds (one entry per add) by first occurrence:
/// a name for every class that does not depend on whose representatives —
/// the e-graph's ids or the closure's add indices — they are.
fn renumber<T: Ord>(classes: impl Iterator<Item = T>) -> (BTreeMap<T, usize>, Vec<usize>) {
    let mut map = BTreeMap::new();
    let sequence = classes
        .map(|class| {
            let next = map.len();
            *map.entry(class).or_insert(next)
        })
        .collect();
    (map, sequence)
}

/// The canonical forms of every class, with classes and children renamed via
/// the first-occurrence numbering: a representation two isomorphic e-graphs
/// must agree on exactly.
fn class_signatures(
    egraph: &EGraph<SymbolLang>,
    numbering: &BTreeMap<Id, usize>,
) -> BTreeMap<usize, Vec<(String, Vec<usize>)>> {
    let mut out = BTreeMap::new();
    for class in egraph.classes() {
        let index = *numbering
            .get(&class.id)
            .expect("every class is the find() of some tracked add");
        let mut nodes: Vec<(String, Vec<usize>)> = class
            .iter()
            .map(|node| {
                let children = node
                    .children()
                    .iter()
                    .map(|&c| numbering[&egraph.find(c)])
                    .collect();
                (node.op_str(), children)
            })
            .collect();
        nodes.sort();
        out.insert(index, nodes);
    }
    out
}

/// A pattern as the oracle reads it: built by the test, printed to the
/// s-expression the library parses, so the two sides share no pattern code.
#[derive(Debug, Clone)]
enum Pat {
    /// `?p<n>`
    Var(u8),
    /// An operator applied to sub-patterns (none: a ground leaf).
    Node(String, Vec<Pat>),
}

impl Pat {
    /// Decodes a pattern from a byte stream: variables (from a pool of
    /// `nvars`, so a small pool makes non-linear patterns), the leaves and
    /// binary operators [`workload`] builds its graphs from, nodes down to
    /// `levels_left` levels below this one. The root is an operator three
    /// times in four, a position below it half the time. An exhausted stream
    /// reads as zeros, i.e. variables.
    fn decode(
        bytes: &mut impl Iterator<Item = u8>,
        levels_left: usize,
        nvars: u8,
        root: bool,
    ) -> Pat {
        let byte = bytes.next().unwrap_or(0);
        let (kind, arg) = (byte % 8, byte / 8);
        match kind {
            0 => Pat::Var(arg % nvars),
            1 => Pat::Node(format!("v{}", arg % 6), Vec::new()),
            2 | 3 if !root => Pat::Var(arg % nvars),
            _ if levels_left == 0 => Pat::Var(arg % nvars),
            _ => Pat::Node(
                format!("f{}", arg % 4),
                vec![
                    Pat::decode(bytes, levels_left - 1, nvars, false),
                    Pat::decode(bytes, levels_left - 1, nvars, false),
                ],
            ),
        }
    }

    fn sexpr(&self) -> String {
        match self {
            Pat::Var(v) => format!("?p{v}"),
            Pat::Node(op, children) if children.is_empty() => op.clone(),
            Pat::Node(op, children) => {
                let children: Vec<String> = children.iter().map(Pat::sexpr).collect();
                format!("({op} {})", children.join(" "))
            }
        }
    }
}

/// Variable bindings in the order the oracle made them.
type Bindings = Vec<(u8, Id)>;

/// Steps charged per allowed match; the library's `STEPS_PER_MATCH`.
const STEPS_PER_MATCH: usize = 100;

/// The e-matching oracle: the recursive pattern interpreter that
/// `Pattern::search_classes` ran before patterns were compiled, kept here
/// unchanged in its traversal order, its truncation points and the points at
/// which it charges the step budget. Two things were added: `cut`, the
/// corrected completeness accounting (the interpreter reported a scan
/// complete whenever it reached the end of the class list), and `work`, a
/// test-only valve that abandons enumerations too large to finish, which an
/// unlimited match budget allows.
struct Oracle<'a> {
    egraph: &'a EGraph<SymbolLang>,
    limit: usize,
    steps: usize,
    cut: bool,
    work: usize,
}

impl Oracle<'_> {
    /// Calls to [`Oracle::match_in_class`] after which a case is abandoned.
    const MAX_WORK: usize = 200_000;

    /// `None`: the enumeration was abandoned as too large.
    #[allow(clippy::type_complexity)]
    fn search_classes(
        egraph: &EGraph<SymbolLang>,
        pat: &Pat,
        classes: &[Id],
        match_limit: usize,
    ) -> Option<(Vec<(Id, Vec<Bindings>)>, bool)> {
        let mut oracle = Oracle {
            egraph,
            limit: match_limit,
            steps: match_limit.saturating_mul(STEPS_PER_MATCH),
            cut: false,
            work: 0,
        };
        let mut results = Vec::new();
        for &id in classes {
            if oracle.limit == 0 || oracle.steps == 0 {
                return Some((results, false));
            }
            let eclass = egraph.find(id);
            let substs = oracle.match_in_class(pat, eclass, Bindings::new());
            if oracle.work > Self::MAX_WORK {
                return None;
            }
            if !substs.is_empty() {
                oracle.limit -= substs.len();
                results.push((eclass, substs));
            }
        }
        Some((results, !oracle.cut))
    }

    fn match_in_class(&mut self, pat: &Pat, eclass: Id, subst: Bindings) -> Vec<Bindings> {
        self.work += 1;
        if self.work > Self::MAX_WORK {
            return Vec::new();
        }
        if self.steps == 0 {
            self.cut = true;
            return Vec::new();
        }
        self.steps -= 1;
        match pat {
            Pat::Var(v) => {
                let id = self.egraph.find(eclass);
                match subst.iter().find(|(bound, _)| bound == v) {
                    Some(&(_, existing)) if existing != id => vec![],
                    Some(_) => vec![subst],
                    None => {
                        let mut subst = subst;
                        subst.push((*v, id));
                        vec![subst]
                    }
                }
            }
            Pat::Node(op, pchildren) => {
                let mut out = Vec::new();
                let Some(class) = self.egraph.get_class(eclass) else {
                    return out;
                };
                let matches = |n: &SymbolLang| n.op == *op && n.children.len() == pchildren.len();
                for (i, enode) in class.nodes.iter().enumerate() {
                    if self.steps == 0 {
                        self.cut |= class.nodes[i..].iter().any(matches);
                        break;
                    }
                    if !matches(enode) {
                        continue;
                    }
                    // Match children left to right, threading substitutions.
                    let mut partial = vec![subst.clone()];
                    for (pchild, echild) in pchildren.iter().zip(&enode.children) {
                        let mut next = Vec::new();
                        let count = partial.len();
                        for (k, s) in partial.into_iter().enumerate() {
                            next.extend(self.match_in_class(pchild, *echild, s));
                            if next.len() >= self.limit {
                                self.cut |= next.len() > self.limit || k + 1 < count;
                                next.truncate(self.limit);
                                break;
                            }
                        }
                        partial = next;
                        if partial.is_empty() {
                            break;
                        }
                    }
                    out.extend(partial);
                    if out.len() >= self.limit {
                        self.cut |=
                            out.len() > self.limit || class.nodes[i + 1..].iter().any(matches);
                        out.truncate(self.limit);
                        break;
                    }
                }
                out
            }
        }
    }
}

/// The library's matches in the oracle's terms: per class, per match, the
/// `(variable number, class)` pairs in slot order — which, slots being
/// numbered by first occurrence, is the order the oracle binds in.
fn named_matches(
    pattern: &Pattern<SymbolLang>,
    matches: &[egraph::SearchMatches],
) -> Vec<(Id, Vec<Bindings>)> {
    let numbers: Vec<u8> = pattern
        .vars()
        .iter()
        .map(|var| var.0[1..].parse().expect("variables are named p<n>"))
        .collect();
    matches
        .iter()
        .map(|m| {
            let substs = m
                .substs
                .iter()
                .map(|subst| subst.iter().map(|(slot, id)| (numbers[slot], id)).collect())
                .collect();
            (m.eclass, substs)
        })
        .collect()
}

/// The pool of rewrite rules the runner differential draws from. SymbolLang
/// attaches no semantics, so any structurally well-formed rule is fair game;
/// the mix covers growing rules (commutativity, associativity,
/// distribution), collapsing rules, and cross-operator rules.
fn rule_pool() -> Vec<Rewrite<SymbolLang>> {
    vec![
        Rewrite::parse("comm-f0", "(f0 ?a ?b)", "(f0 ?b ?a)").unwrap(),
        Rewrite::parse("comm-f1", "(f1 ?a ?b)", "(f1 ?b ?a)").unwrap(),
        Rewrite::parse("assoc-f0", "(f0 (f0 ?a ?b) ?c)", "(f0 ?a (f0 ?b ?c))").unwrap(),
        Rewrite::parse("assoc-f1", "(f1 ?a (f1 ?b ?c))", "(f1 (f1 ?a ?b) ?c)").unwrap(),
        Rewrite::parse("dist", "(f0 (f1 ?a ?b) ?c)", "(f1 (f0 ?a ?c) (f0 ?b ?c))").unwrap(),
        Rewrite::parse("fuse", "(f2 ?a ?b)", "(f0 ?a ?b)").unwrap(),
        Rewrite::parse("collapse", "(f3 ?a ?a)", "?a").unwrap(),
        Rewrite::parse("wrap", "(f3 ?a ?b)", "(f3 (f2 ?a ?b) (f2 ?a ?b))").unwrap(),
    ]
}

/// Everything a saturation run observes, minus wall-clock times: used to
/// compare a serial and a parallel run for bit-identical behavior. Unlike
/// the rebuild differential above, no renumbering is needed — bit-identical
/// runs perform the same unions in the same order, so even the raw class ids
/// must coincide.
/// `(iteration, nodes, classes, matched, applied, rebuild_unions, search_complete)`
type IterationSig = (
    usize,
    usize,
    usize,
    Vec<(String, usize)>,
    Vec<(String, usize)>,
    usize,
    bool,
);

#[derive(Debug, PartialEq)]
struct RunSignature {
    stop_reason: egraph::StopReason,
    iterations: Vec<IterationSig>,
    /// `find()` of every tracked add, by raw id.
    partitions: Vec<Id>,
    /// Raw class id → sorted canonical node forms.
    classes: BTreeMap<usize, Vec<(String, Vec<usize>)>>,
    total_nodes: usize,
    num_unions: usize,
}

fn run_signature(
    ops: &[Op],
    rules: &[Rewrite<SymbolLang>],
    threads: usize,
    iter_limit: usize,
    match_limit: usize,
    ban_length: usize,
) -> RunSignature {
    let (egraph, ids) = apply(ops);
    let runner = Runner::with_egraph(egraph)
        .with_iter_limit(iter_limit)
        .with_node_limit(3_000)
        .with_scheduler(Scheduler::Backoff {
            match_limit,
            ban_length,
        })
        .with_search_threads(threads)
        .run(rules);
    let iterations = runner
        .iterations
        .iter()
        .map(|it| {
            (
                it.iteration,
                it.egraph_nodes,
                it.egraph_classes,
                it.matched.clone(),
                it.applied.clone(),
                it.rebuild_unions,
                it.search_complete,
            )
        })
        .collect();
    let partitions = ids.iter().map(|&id| runner.egraph.find(id)).collect();
    let mut classes: BTreeMap<usize, Vec<(String, Vec<usize>)>> = BTreeMap::new();
    for class in runner.egraph.classes() {
        let mut nodes: Vec<(String, Vec<usize>)> = class
            .iter()
            .map(|node| {
                let children = node
                    .children()
                    .iter()
                    .map(|&c| runner.egraph.find(c).index())
                    .collect();
                (node.op_str(), children)
            })
            .collect();
        nodes.sort();
        classes.insert(class.id.index(), nodes);
    }
    RunSignature {
        stop_reason: runner.stop_reason.expect("run sets a stop reason"),
        iterations,
        partitions,
        classes,
        total_nodes: runner.egraph.total_nodes(),
        num_unions: runner.egraph.num_unions(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The headline differential property: at every rebuild point the graph
    /// is the congruence closure of the ops so far.
    #[test]
    fn incremental_rebuild_matches_reference(ops in workload()) {
        for end in rebuild_points(&ops) {
            matches_closure(&ops[..end])?;
        }
    }

    /// A rebuild of a clean graph is a no-op: it finds nothing to union and
    /// leaves every invariant in place.
    #[test]
    fn strategies_interchange_on_one_graph(ops in workload()) {
        let (mut egraph, _) = apply(&ops);
        prop_assert!(!egraph.is_dirty());
        prop_assert_eq!(egraph.rebuild(), 0);
        check_invariants(&egraph).map_err(TestCaseError)?;
    }

    /// The parallel-search differential: sharded search on 2 and 4 worker
    /// threads is bit-identical to the serial path — same matches applied,
    /// same `IterationReport`s (modulo wall-clock), same stop reason, and
    /// the same final e-graph down to raw class ids — across randomized
    /// starting graphs, rule subsets, match budgets and ban lengths.
    #[test]
    fn parallel_search_matches_serial(
        ops in workload(),
        mask in proptest::collection::vec(any::<bool>(), 8),
        iter_limit in 2usize..5,
        match_limit in 4usize..64,
        ban_length in 0usize..3,
    ) {
        let mut rules: Vec<Rewrite<SymbolLang>> = rule_pool()
            .into_iter()
            .zip(&mask)
            .filter(|(_, &keep)| keep)
            .map(|(rule, _)| rule)
            .collect();
        if rules.is_empty() {
            // An all-false mask still exercises the single-rule path.
            rules = rule_pool().into_iter().take(1).collect();
        }
        let serial = run_signature(&ops, &rules, 1, iter_limit, match_limit, ban_length);
        for threads in [2usize, 4] {
            let parallel = run_signature(&ops, &rules, threads, iter_limit, match_limit, ban_length);
            prop_assert_eq!(&serial, &parallel, "{} search threads diverged from serial", threads);
        }
    }

    /// The matcher differential: the compiled program returns exactly what
    /// the interpreter oracle returns — same classes, same substitutions,
    /// same order, same completeness flag — for random e-graphs, random
    /// patterns (ground, linear, non-linear, variable-rooted; up to four
    /// levels below the root and twelve distinct variables), random class
    /// sequences (unordered, with repeats and non-canonical ids), before and
    /// after some saturation, and match budgets on both sides of the step
    /// budget's reach. One scratch serves every search of a case, so a stale
    /// row would show.
    #[test]
    fn compiled_matcher_matches_interpreter_oracle(
        ops in workload(),
        shape in proptest::collection::vec(any::<u8>(), 31),
        nvars in 1u8..13,
        picks in proptest::collection::vec(0usize..1000, 0..48),
        grow in 0usize..4,
    ) {
        // A few rounds of rewriting fill classes with same-shaped nodes, so
        // one class yields many matches and the caps bite at inner levels.
        let (egraph, ids) = apply(&ops);
        let egraph = Runner::with_egraph(egraph)
            .with_iter_limit(grow)
            .with_node_limit(3_000)
            .run(&rule_pool())
            .egraph;
        let pat = Pat::decode(&mut shape.into_iter(), 4, nvars, true);
        let pattern: Pattern<SymbolLang> = pat.sexpr().parse().expect("generated patterns parse");
        // Half the picks go to the classes with the most nodes, where one
        // class yields many matches and the caps bite at inner levels; each
        // of those is also searched alone, as the last class of its
        // sequence, where only the matcher's own accounting decides the flag.
        let mut largest: Vec<Id> = egraph.class_ids_sorted();
        largest.sort_by_key(|&id| std::cmp::Reverse(egraph.class(id).len()));
        largest.truncate(6);
        let picked: Vec<Id> = picks
            .iter()
            .map(|p| match p % 2 {
                0 => ids[p / 2 % ids.len()],
                _ => largest[p / 2 % largest.len()],
            })
            .collect();
        let sequences = std::iter::once(picked).chain(largest.iter().map(|&id| vec![id]));
        let mut scratch = MatchScratch::default();
        for classes in sequences {
            for match_limit in [0, 1, 2, 7, usize::MAX] {
                let Some((expected, complete)) =
                    Oracle::search_classes(&egraph, &pat, &classes, match_limit)
                else {
                    continue;
                };
                let (found, found_complete) = pattern.search_classes(
                    &egraph,
                    classes.iter().copied(),
                    match_limit,
                    &mut scratch,
                );
                prop_assert_eq!(
                    named_matches(&pattern, &found),
                    expected,
                    "{} in {:?} with match_limit {}", pattern, classes, match_limit
                );
                prop_assert_eq!(
                    found_complete,
                    complete,
                    "{} in {:?} with match_limit {}: completeness", pattern, classes, match_limit
                );
            }
        }
    }

    /// Every invariant the auditor knows holds at each rebuild point, not
    /// only after the last.
    #[test]
    fn alternating_strategies_preserve_invariants(ops in workload()) {
        for end in rebuild_points(&ops) {
            check_invariants(&apply(&ops[..end]).0).map_err(TestCaseError)?;
        }
    }
}
