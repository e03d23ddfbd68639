//! Patterns and compiled e-matching.
//!
//! A [`Pattern`] is a term over the language extended with pattern variables
//! (`?x`, `?y`, ...). Searching a pattern against an [`EGraph`] produces, for
//! each e-class, the variable [`Subst`]itutions under which the pattern
//! matches some term represented by that class.
//!
//! # The compiled program
//!
//! A pattern is compiled once, when it is parsed, into a flat program laid
//! out in pre-order: a `Node` instruction (scan the e-nodes of a class for an
//! operator) is followed by the programs of its children, left to right.
//! Variables are numbered *slots* in order of first occurrence; the first
//! occurrence of a variable compiles to `Bind` (store the class in the
//! slot), every later one to `Check` (the class must equal the slot). A
//! [`Subst`] is therefore a slot-indexed row of class ids, and the right-hand
//! side of a [`crate::Rewrite`] is compiled against its left-hand side's slot
//! numbering, so instantiating it indexes the row instead of comparing names.
//!
//! The matcher runs the program over one reusable stack of rows
//! ([`MatchScratch`], one per search worker): partial matches are rows on
//! that stack, extended in place, and the only allocations are the matches
//! returned. A `Node` instruction carries its operator's signature bit and
//! returns at once from a class whose operator signature lacks it; that
//! class holds no matching e-node, so its scan would have charged no step
//! and cut nothing, and the contract below is kept to the letter.
//!
//! # The snapshot
//!
//! The matcher reads only a dense, read-only snapshot of the clean e-graph
//! (`crate::egraph::Snapshot`): the canonical id of every id, one packed
//! signature-and-offset word per id, and every class's nodes contiguous in
//! id order. A `Node` step reads one word and scans a contiguous node range
//! instead of walking union-find, slot table, class store and node list.
//! Each *entry* class id is canonicalized through the snapshot; every id
//! below it is a node's child, canonical after rebuild. The runner builds
//! one snapshot per search phase and shares it between its workers;
//! [`Pattern::search_classes`] builds its own, so a direct search runs the
//! same matcher.
//!
//! # The order-and-budget contract
//!
//! [`Pattern::search_classes`] is a pure function of `(e-graph, pattern,
//! class sequence, match_limit)`; the saturation results of the whole
//! workspace are pinned to it, so an implementation may change only if all
//! of the following stay exactly as they are:
//!
//! * **Order.** Classes are visited in the order given. Within a class,
//!   e-nodes are tried in `EClass::nodes` order; for one e-node the children
//!   are matched left to right, *level by level*: all rows that survive child
//!   `k` are collected (in order) before child `k + 1` is matched against
//!   each of them. Matches come out in lexicographic `(e-node, child 0 match,
//!   child 1 match, ...)` order.
//! * **Match budget.** `match_limit` caps the substitutions returned in
//!   total; what is left of it when a class is entered also caps every
//!   intermediate row list inside that class (a list that reaches the cap is
//!   truncated to it and the rows it was being built from are abandoned).
//! * **Step budget.** One search may execute `match_limit * STEPS_PER_MATCH`
//!   instructions. Each executed instruction costs one step, charged on
//!   entry; with no steps left an instruction yields nothing, and the e-node
//!   scan of a `Node` stops before the next e-node.
//! * **Completeness.** The returned flag is `true` only when every class was
//!   visited and no enumeration was cut short: no instruction was refused for
//!   lack of steps, no row was dropped by a cap, and no cap or empty step
//!   budget stopped a scan while candidates were left. A budget that reaches
//!   zero exactly as the last enumeration ends is still a complete search.

use crate::egraph::{op_signature, Snapshot};
use crate::language::parse_sexpr_into;
use crate::{EGraph, FromOp, Id, Language, ParseError, RecExpr};
use std::str::FromStr;

/// A pattern variable such as `?x`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub String);

impl Var {
    /// Creates a variable from its name (without the leading `?`).
    pub fn new(name: impl Into<String>) -> Self {
        Var(name.into())
    }
}

impl std::fmt::Display for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "?{}", self.0)
    }
}

/// A node of a pattern: either a concrete language node or a variable.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ENodeOrVar<L> {
    /// A concrete operator applied to child pattern nodes.
    ENode(L),
    /// A pattern variable.
    Var(Var),
}

impl<L: Language> Language for ENodeOrVar<L> {
    fn children(&self) -> &[Id] {
        match self {
            ENodeOrVar::ENode(n) => n.children(),
            ENodeOrVar::Var(_) => &[],
        }
    }

    fn children_mut(&mut self) -> &mut [Id] {
        match self {
            ENodeOrVar::ENode(n) => n.children_mut(),
            ENodeOrVar::Var(_) => &mut [],
        }
    }

    fn matches(&self, other: &Self) -> bool {
        match (self, other) {
            (ENodeOrVar::ENode(a), ENodeOrVar::ENode(b)) => a.matches(b),
            (ENodeOrVar::Var(a), ENodeOrVar::Var(b)) => a == b,
            _ => false,
        }
    }

    fn op_str(&self) -> String {
        match self {
            ENodeOrVar::ENode(n) => n.op_str(),
            ENodeOrVar::Var(v) => v.to_string(),
        }
    }

    fn op_key(&self) -> u64 {
        match self {
            // Forward to the inner language so a pattern node's key agrees
            // with the e-graph's operator index over `L`.
            ENodeOrVar::ENode(n) => n.op_key(),
            ENodeOrVar::Var(v) => crate::language::op_key_of(&v.to_string(), 0),
        }
    }
}

/// Row content of a slot no instruction has bound yet. No class has this id:
/// ids are dense `u32` indices and an e-graph of `u32::MAX` classes cannot be
/// built.
const UNBOUND: Id = Id(u32::MAX);

/// A variable binding produced by e-matching: one e-class id per variable
/// slot of the pattern that was searched (see [`Pattern::vars`] for the
/// variable each slot stands for).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subst {
    slots: Box<[Id]>,
}

impl Subst {
    /// Returns the class bound to `slot`, if the slot exists and is bound.
    /// A search binds every slot whose variable occurs in the pattern
    /// searched — all of them, unless the pattern is a rewrite's right-hand
    /// side, which carries its left-hand side's slots.
    pub fn get(&self, slot: usize) -> Option<Id> {
        self.slots.get(slot).copied().filter(|&id| id != UNBOUND)
    }

    /// Iterates over the bound `(slot, class)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Id)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, &id)| id != UNBOUND)
            .map(|(slot, &id)| (slot, id))
    }

    /// Number of bound slots.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Returns `true` if no slot is bound.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// All matches of a pattern inside one e-class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchMatches {
    /// The e-class in which the pattern matched.
    pub eclass: Id,
    /// The substitutions under which it matched.
    pub substs: Vec<Subst>,
}

/// One instruction of a compiled pattern; see the module docs for the layout.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Insn<L> {
    /// First occurrence of a variable: store the class in the slot.
    Bind(usize),
    /// Later occurrence of a variable: the class must equal the slot.
    Check(usize),
    /// Try every e-node of the class that [`Language::matches`] `op`, then
    /// its children against the sub-programs that follow, one per child of
    /// `op`. `end` is the index one past the last of them. The child ids
    /// `op` itself holds are unused. `sig` is `op`'s signature bit: a
    /// class whose signature lacks it holds no node that matches `op`.
    Node { op: L, end: usize, sig: u32 },
}

/// A syntactic pattern over language `L` with variables, compiled for
/// matching and instantiation (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern<L> {
    /// The pattern term as written; the last node is the root.
    ast: RecExpr<ENodeOrVar<L>>,
    /// The variable each slot stands for.
    vars: Vec<Var>,
    /// The compiled form of `ast` over `vars`.
    program: Vec<Insn<L>>,
}

impl<L: Language> std::fmt::Display for Pattern<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.ast)
    }
}

impl<L: FromOp> FromStr for Pattern<L> {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, ParseError> {
        Self::parse_scoped(s, None)
    }
}

impl<L: FromOp> Pattern<L> {
    /// Parses a pattern whose variables take the slots `scope` gives them
    /// (`None`: slots are numbered by first occurrence). This is how a
    /// rewrite's right-hand side comes to read the rows its left-hand side
    /// produces.
    ///
    /// # Errors
    /// Returns a [`ParseError`] on malformed input, on a variable with
    /// children, and on a variable that `scope` does not contain.
    pub(crate) fn parse_scoped(s: &str, scope: Option<&[Var]>) -> Result<Self, ParseError> {
        let nodes = parse_sexpr_into::<ENodeOrVar<L>, _>(s, |op, children, nodes| {
            let node = if let Some(name) = op.strip_prefix('?') {
                if !children.is_empty() {
                    return Err(ParseError(format!(
                        "pattern variable ?{name} cannot have children"
                    )));
                }
                ENodeOrVar::Var(Var::new(name))
            } else {
                ENodeOrVar::ENode(L::from_op(op, children)?)
            };
            nodes.push(node);
            Ok(Id::from(nodes.len() - 1))
        })?;
        let mut ast = RecExpr::default();
        for node in nodes {
            ast.add(node);
        }
        let mut compiler = Compiler {
            ast: &ast,
            open: scope.is_none(),
            vars: scope.map(<[Var]>::to_vec).unwrap_or_default(),
            seen: vec![false; scope.map_or(0, <[Var]>::len)],
            program: Vec::with_capacity(ast.len()),
        };
        compiler.emit(ast.root())?;
        let Compiler { vars, program, .. } = compiler;
        Ok(Pattern { ast, vars, program })
    }
}

/// Flattens a pattern term into its pre-order program.
struct Compiler<'a, L> {
    ast: &'a RecExpr<ENodeOrVar<L>>,
    /// Whether an unknown variable gets a new slot (else it is an error).
    open: bool,
    vars: Vec<Var>,
    /// Per slot: whether an earlier instruction already binds it.
    seen: Vec<bool>,
    program: Vec<Insn<L>>,
}

impl<L: Language> Compiler<'_, L> {
    fn emit(&mut self, id: Id) -> Result<(), ParseError> {
        match self.ast.node(id) {
            ENodeOrVar::Var(var) => {
                let slot = match self.vars.iter().position(|v| v == var) {
                    Some(slot) => slot,
                    None if self.open => {
                        self.vars.push(var.clone());
                        self.seen.push(false);
                        self.vars.len() - 1
                    }
                    None => return Err(ParseError(format!("variable {var} is not in scope"))),
                };
                let bound = std::mem::replace(&mut self.seen[slot], true);
                self.program.push(if bound {
                    Insn::Check(slot)
                } else {
                    Insn::Bind(slot)
                });
            }
            ENodeOrVar::ENode(op) => {
                let at = self.program.len();
                self.program.push(Insn::Node {
                    op: op.clone(),
                    end: 0,
                    sig: op_signature(op.op_key()),
                });
                for &child in op.children() {
                    self.emit(child)?;
                }
                let after = self.program.len();
                if let Insn::Node { end, .. } = &mut self.program[at] {
                    *end = after;
                }
            }
        }
        Ok(())
    }
}

/// Matcher work budget per allowed match: bounds the instructions one search
/// may execute at `match_limit * STEPS_PER_MATCH`, so patterns that enumerate
/// huge candidate spaces without completing matches still stop.
const STEPS_PER_MATCH: usize = 100;

/// Reusable working memory of the matcher: the stack of partial-match rows.
/// A search leaves nothing in it that a later search reads, so one scratch
/// serves any sequence of searches (of any patterns) on one thread and only
/// ever grows to the deepest enumeration it has seen.
#[derive(Debug, Default)]
pub struct MatchScratch {
    rows: Vec<Id>,
}

/// The matcher: a compiled program running over one e-graph snapshot, with
/// the budgets of one [`Pattern::search_classes`] call.
///
/// A *row* is `width` consecutive ids in `rows`, addressed by the offset of
/// its first id. Every instruction reads one input row and appends its
/// output rows to the top of the stack; rows below the top at entry are never
/// written.
struct Machine<'a, L: Language> {
    snapshot: &'a Snapshot<L>,
    program: &'a [Insn<L>],
    width: usize,
    rows: &'a mut Vec<Id>,
    /// Cap on every row list built inside the current class.
    limit: usize,
    /// Instructions this search may still execute.
    steps: usize,
    /// Whether some enumeration was cut short by a budget.
    cut: bool,
}

impl<L: Language> Machine<'_, L> {
    /// Appends a copy of the row at `input` and returns its offset.
    fn push_copy(&mut self, input: usize) -> usize {
        let at = self.rows.len();
        self.rows.extend_from_within(input..input + self.width);
        at
    }

    /// Runs the instruction at `pc` (with its sub-programs) on the canonical
    /// class `eclass` under the row at `input`, appends the rows under which
    /// it matches to the stack and returns how many it appended (at most
    /// `limit`).
    fn run(&mut self, pc: usize, eclass: Id, input: usize) -> usize {
        if self.steps == 0 {
            self.cut = true;
            return 0;
        }
        self.steps -= 1;
        let (snapshot, program, width, limit) =
            (self.snapshot, self.program, self.width, self.limit);
        match &program[pc] {
            Insn::Bind(slot) => {
                let at = self.push_copy(input);
                self.rows[at + slot] = eclass;
                1
            }
            Insn::Check(slot) => {
                if self.rows[input + slot] != eclass {
                    return 0;
                }
                self.push_copy(input);
                1
            }
            Insn::Node { op, sig, .. } => {
                let (class_sig, nodes) = snapshot.class(eclass);
                // The loop below would charge nothing and cut nothing on a
                // class without a matching node; skip it without walking.
                if class_sig & sig == 0 {
                    return 0;
                }
                let out = self.rows.len();
                let mut found = 0;
                for (i, enode) in nodes.iter().enumerate() {
                    if self.steps == 0 {
                        self.cut |= nodes[i..].iter().any(|n| op.matches(n));
                        break;
                    }
                    if !op.matches(enode) {
                        continue;
                    }
                    // Match children left to right, level by level: `count`
                    // rows at `partial` survived the children so far.
                    let (mut partial, mut count) = (input, 1);
                    let mut child_pc = pc + 1;
                    for &echild in enode.children().iter().take(op.children().len()) {
                        let next = self.rows.len();
                        let mut next_count = 0;
                        for k in 0..count {
                            next_count += self.run(child_pc, echild, partial + k * width);
                            if next_count >= limit {
                                self.cut |= next_count > limit || k + 1 < count;
                                next_count = limit;
                                self.rows.truncate(next + limit * width);
                                break;
                            }
                        }
                        (partial, count) = (next, next_count);
                        if count == 0 {
                            break;
                        }
                        child_pc = match program[child_pc] {
                            Insn::Node { end, .. } => end,
                            Insn::Bind(_) | Insn::Check(_) => child_pc + 1,
                        };
                    }
                    // Move the survivors down onto the end of this call's
                    // output, dropping the intermediate levels.
                    let dst = out + found * width;
                    let len = count * width;
                    if self.rows.len() < dst + len {
                        self.rows.resize(dst + len, UNBOUND);
                    }
                    self.rows.copy_within(partial..partial + len, dst);
                    self.rows.truncate(dst + len);
                    found += count;
                    if found >= limit {
                        self.cut |= found > limit || nodes[i + 1..].iter().any(|n| op.matches(n));
                        found = limit;
                        self.rows.truncate(out + limit * width);
                        break;
                    }
                }
                found
            }
        }
    }
}

impl<L: Language> Pattern<L> {
    /// Returns the variable each slot of a [`Subst`] stands for, in slot
    /// order: the distinct variables of the pattern by first occurrence (for
    /// a rewrite's right-hand side, those of its left-hand side).
    pub fn vars(&self) -> Vec<Var> {
        self.vars.clone()
    }

    /// Searches the pattern in every candidate class of the e-graph.
    ///
    /// `match_limit` caps the *total* number of substitutions collected
    /// across all classes and, through the derived step budget, the work
    /// spent enumerating; `usize::MAX` disables both. See
    /// [`Pattern::search_classes`].
    pub fn search(&self, egraph: &EGraph<L>, match_limit: usize) -> Vec<SearchMatches> {
        let classes = self.candidate_classes(egraph);
        self.search_classes(egraph, classes, match_limit, &mut MatchScratch::default())
            .0
    }

    /// The [`Language::op_key`] of the root operator, or `None` when the root
    /// is a variable. Patterns with equal keys have equal candidate classes.
    pub(crate) fn root_op_key(&self) -> Option<u64> {
        match self.program.first() {
            Some(Insn::Node { op, .. }) => Some(op.op_key()),
            _ => None,
        }
    }

    /// Returns the candidate classes this pattern could match, in a
    /// deterministic order: the operator index entry
    /// ([`EGraph::classes_for_op`]) for a concrete root, so a rule only pays
    /// for the classes whose nodes can match its root symbol, or every class
    /// for a variable root. Classes not returned cannot match, so skipping
    /// them preserves the completeness flag of a search.
    pub fn candidate_classes(&self, egraph: &EGraph<L>) -> Vec<Id> {
        match self.root_op_key() {
            Some(key) => egraph.classes_for_op(key),
            // A variable root matches every class; no pruning possible.
            None => egraph.class_ids().collect(),
        }
    }

    /// The search entry point: scans an explicit sequence of candidate
    /// classes, in order, under its own match budget (and the derived step
    /// budget), using `scratch` as working memory. It copies `egraph` into
    /// a snapshot first (one O(ids + nodes) pass; see the module docs), as
    /// the runner does once per search phase.
    ///
    /// This is a pure function of `(egraph, pattern, classes, match_limit)` —
    /// the module docs state the exact order and budget rules — which is what
    /// lets the [`crate::Runner`] split a rule's candidate list into
    /// contiguous shards, search them on any number of worker threads, and
    /// still merge bit-identical results: a shard's outcome does not depend
    /// on scheduling.
    ///
    /// The second return value is `true` when the search was *complete*:
    /// every class was visited and no enumeration was cut short by a budget.
    /// `false` means matches may remain unfound, so the caller must not
    /// conclude anything (like saturation) from the absence of matches.
    pub fn search_classes(
        &self,
        egraph: &EGraph<L>,
        classes: impl IntoIterator<Item = Id>,
        match_limit: usize,
        scratch: &mut MatchScratch,
    ) -> (Vec<SearchMatches>, bool) {
        self.search_snapshot(&egraph.snapshot(), classes, match_limit, scratch)
    }

    /// [`Pattern::search_classes`] on a snapshot the caller built, so the
    /// runner's search workers share one.
    pub(crate) fn search_snapshot(
        &self,
        snapshot: &Snapshot<L>,
        classes: impl IntoIterator<Item = Id>,
        match_limit: usize,
        scratch: &mut MatchScratch,
    ) -> (Vec<SearchMatches>, bool) {
        let width = self.vars.len();
        scratch.rows.clear();
        // The row every enumeration starts from: nothing bound.
        scratch.rows.resize(width, UNBOUND);
        let mut machine = Machine {
            snapshot,
            program: &self.program,
            width,
            rows: &mut scratch.rows,
            limit: match_limit,
            steps: match_limit.saturating_mul(STEPS_PER_MATCH),
            cut: false,
        };
        let mut results = Vec::new();
        for id in classes {
            if machine.limit == 0 || machine.steps == 0 {
                return (results, false);
            }
            let eclass = snapshot.find(id);
            let found = machine.run(0, eclass, 0);
            if found > 0 {
                let substs = (0..found)
                    .map(|k| Subst {
                        slots: machine.rows[(k + 1) * width..(k + 2) * width].into(),
                    })
                    .collect();
                machine.limit -= found;
                results.push(SearchMatches { eclass, substs });
            }
            machine.rows.truncate(width);
        }
        (results, !machine.cut)
    }

    /// Instantiates the pattern under a substitution, adding the resulting
    /// term to the e-graph. Returns the class of the instantiated root.
    ///
    /// `subst` must come from a pattern with this pattern's slot numbering:
    /// this pattern itself, or the left-hand side of the rewrite this
    /// pattern is the right-hand side of.
    ///
    /// # Panics
    /// Panics if `subst` has fewer slots than the pattern has variables.
    pub fn apply_one(&self, egraph: &mut EGraph<L>, subst: &Subst) -> Id {
        self.instantiate(egraph, subst, &mut 0)
    }

    /// Instantiates the sub-program at `*pc`, leaving `*pc` one past it.
    /// Children are added before their parent, left to right.
    fn instantiate(&self, egraph: &mut EGraph<L>, subst: &Subst, pc: &mut usize) -> Id {
        let insn = &self.program[*pc];
        *pc += 1;
        match insn {
            Insn::Bind(slot) | Insn::Check(slot) => subst.slots[*slot],
            Insn::Node { op, .. } => {
                let node = op.map_children(|_| self.instantiate(egraph, subst, pc));
                egraph.add(node)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymbolLang;

    fn egraph_with(exprs: &[&str]) -> (EGraph<SymbolLang>, Vec<Id>) {
        let mut eg = EGraph::new();
        let roots = exprs
            .iter()
            .map(|s| {
                let e: RecExpr<SymbolLang> = s.parse().unwrap();
                eg.add_expr(&e)
            })
            .collect();
        eg.rebuild();
        (eg, roots)
    }

    /// Unions the roots of `exprs` into one class and returns it.
    fn one_class_of(exprs: &[&str]) -> (EGraph<SymbolLang>, Id) {
        let (mut eg, roots) = egraph_with(exprs);
        for pair in roots.windows(2) {
            eg.union(pair[0], pair[1]);
        }
        eg.rebuild();
        let class = eg.find(roots[0]);
        (eg, class)
    }

    #[test]
    fn parse_pattern_with_vars() {
        let p: Pattern<SymbolLang> = "(+ ?x (* ?y ?x))".parse().unwrap();
        assert_eq!(p.to_string(), "(+ ?x (* ?y ?x))");
        assert_eq!(p.vars(), [Var::new("x"), Var::new("y")]);
    }

    #[test]
    fn program_is_preorder_with_bind_then_check() {
        let p: Pattern<SymbolLang> = "(+ ?x (* ?y ?x))".parse().unwrap();
        let kinds: Vec<String> = p
            .program
            .iter()
            .map(|insn| match insn {
                Insn::Bind(slot) => format!("bind {slot}"),
                Insn::Check(slot) => format!("check {slot}"),
                Insn::Node { op, end, .. } => format!("{} ..{end}", op.op),
            })
            .collect();
        assert_eq!(kinds, ["+ ..5", "bind 0", "* ..5", "bind 1", "check 0"]);
    }

    #[test]
    fn variable_with_children_is_an_error() {
        let r: Result<Pattern<SymbolLang>, _> = "(?f a b)".parse();
        assert!(r.is_err());
    }

    #[test]
    fn scoped_parse_takes_the_scope_slots_and_rejects_strangers() {
        let scope = [Var::new("a"), Var::new("b")];
        let p = Pattern::<SymbolLang>::parse_scoped("(+ ?b ?a)", Some(&scope)).unwrap();
        assert_eq!(p.vars(), scope);
        assert!(matches!(p.program[1], Insn::Bind(1)));
        assert!(matches!(p.program[2], Insn::Bind(0)));
        assert!(Pattern::<SymbolLang>::parse_scoped("(+ ?a ?c)", Some(&scope)).is_err());
    }

    #[test]
    fn ground_pattern_matches_exact_class() {
        let (eg, roots) = egraph_with(&["(+ a b)", "(+ a c)"]);
        let p: Pattern<SymbolLang> = "(+ a b)".parse().unwrap();
        let matches = p.search(&eg, usize::MAX);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].eclass, eg.find(roots[0]));
        assert!(matches[0].substs[0].is_empty());
    }

    #[test]
    fn variable_pattern_matches_everything() {
        let (eg, _) = egraph_with(&["(+ a b)"]);
        let p: Pattern<SymbolLang> = "?x".parse().unwrap();
        let matches = p.search(&eg, usize::MAX);
        assert_eq!(matches.len(), eg.num_classes());
    }

    #[test]
    fn nonlinear_pattern_requires_equal_bindings() {
        let (eg, roots) = egraph_with(&["(+ a a)", "(+ a b)"]);
        let p: Pattern<SymbolLang> = "(+ ?x ?x)".parse().unwrap();
        let matches = p.search(&eg, usize::MAX);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].eclass, eg.find(roots[0]));
    }

    #[test]
    fn match_through_equivalence() {
        // After union(a, b), the pattern (f b) should match (f a)'s class.
        let mut eg: EGraph<SymbolLang> = EGraph::new();
        let a = eg.add(SymbolLang::leaf("a"));
        let b = eg.add(SymbolLang::leaf("b"));
        let fa = eg.add(SymbolLang::new("f", vec![a]));
        eg.union(a, b);
        eg.rebuild();
        let p: Pattern<SymbolLang> = "(f b)".parse().unwrap();
        let matches = p.search(&eg, usize::MAX);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].eclass, eg.find(fa));
    }

    #[test]
    fn apply_one_adds_instantiated_term() {
        let (mut eg, roots) = egraph_with(&["(+ a b)"]);
        let lhs: Pattern<SymbolLang> = "(+ ?x ?y)".parse().unwrap();
        // The right-hand side reads the left-hand side's rows.
        let rhs = Pattern::<SymbolLang>::parse_scoped("(+ ?y ?x)", Some(&lhs.vars())).unwrap();
        let matches = lhs.search(&eg, usize::MAX);
        let subst = &matches[0].substs[0];
        let new_id = rhs.apply_one(&mut eg, subst);
        let (_, changed) = eg.union(roots[0], new_id);
        assert!(changed);
        eg.rebuild();
        // Now both (+ a b) and (+ b a) are in the same class.
        let ground: Pattern<SymbolLang> = "(+ b a)".parse().unwrap();
        assert_eq!(ground.search(&eg, usize::MAX).len(), 1);
    }

    #[test]
    fn match_limit_caps_substitutions() {
        // A class with many equivalent nodes can generate many matches; the
        // limit keeps only the first few.
        let mut eg: EGraph<SymbolLang> = EGraph::new();
        let mut ids = Vec::new();
        for name in ["a", "b", "c", "d"] {
            ids.push(eg.add(SymbolLang::leaf(name)));
        }
        // Make them all equivalent.
        for pair in ids.windows(2) {
            eg.union(pair[0], pair[1]);
        }
        let x = eg.add(SymbolLang::new("g", vec![ids[0], ids[0]]));
        let _ = x;
        eg.rebuild();
        let p: Pattern<SymbolLang> = "(g ?x ?y)".parse().unwrap();
        let unlimited = p.search(&eg, usize::MAX);
        let limited = p.search(&eg, 1);
        assert_eq!(unlimited.iter().map(|m| m.substs.len()).sum::<usize>(), 1);
        assert_eq!(limited.iter().map(|m| m.substs.len()).sum::<usize>(), 1);
    }

    #[test]
    fn subst_rejects_conflicting_binding() {
        // The second `?x` checks against the slot the first one bound: of
        // the three `g` nodes only the one with equal children survives, and
        // its row holds exactly the bound slots.
        let (eg, class) = one_class_of(&["(g a b)", "(g b b)", "(g b a)"]);
        let b = eg.lookup(&SymbolLang::leaf("b")).unwrap();
        let p: Pattern<SymbolLang> = "(g ?x ?x)".parse().unwrap();
        let (matches, complete) =
            p.search_classes(&eg, [class], usize::MAX, &mut MatchScratch::default());
        assert!(complete);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].substs.len(), 1);
        let subst = &matches[0].substs[0];
        assert_eq!(subst.get(0), Some(b));
        assert_eq!(subst.get(1), None);
        assert_eq!(subst.len(), 1);
        assert_eq!(subst.iter().collect::<Vec<_>>(), [(0, b)]);
    }

    #[test]
    fn cut_enumeration_in_the_last_class_is_incomplete() {
        // One candidate class holding eight nodes that all match a depth-3
        // pattern: a budget of one match stops after the first node, so the
        // scan of the (only, hence last) class is not complete.
        let exprs: Vec<String> = (0..8).map(|i| format!("(f (g a{i}) b{i})")).collect();
        let exprs: Vec<&str> = exprs.iter().map(String::as_str).collect();
        let (eg, class) = one_class_of(&exprs);
        let p: Pattern<SymbolLang> = "(f (g ?x) ?y)".parse().unwrap();
        let mut scratch = MatchScratch::default();
        let (matches, complete) = p.search_classes(&eg, [class], 1, &mut scratch);
        assert_eq!(matches[0].substs.len(), 1);
        assert!(!complete);
        // A budget that runs dry exactly as the enumeration ends is complete;
        // one match short of that is not.
        let (matches, complete) = p.search_classes(&eg, [class], 8, &mut scratch);
        assert_eq!(matches[0].substs.len(), 8);
        assert!(complete);
        let (matches, complete) = p.search_classes(&eg, [class], 7, &mut scratch);
        assert_eq!(matches[0].substs.len(), 7);
        assert!(!complete);
    }

    #[test]
    fn pattern_with_many_variables_matches() {
        // 40 distinct variables: rows have no fixed capacity.
        let n = 40;
        let leaves: Vec<String> = (0..n).map(|i| format!("c{i}")).collect();
        let vars: Vec<String> = (0..n).map(|i| format!("?v{i}")).collect();
        let (eg, roots) = egraph_with(&[&format!("(wide {})", leaves.join(" "))]);
        let p: Pattern<SymbolLang> = format!("(wide {})", vars.join(" ")).parse().unwrap();
        assert_eq!(p.vars().len(), n);
        let matches = p.search(&eg, usize::MAX);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].eclass, eg.find(roots[0]));
        let subst = &matches[0].substs[0];
        assert_eq!(subst.len(), n);
        for (slot, leaf) in leaves.iter().enumerate() {
            assert_eq!(subst.get(slot), eg.lookup(&SymbolLang::leaf(leaf.as_str())));
        }
    }
}
