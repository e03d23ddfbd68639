//! The e-graph's own checkers, one rule per failure class so the mutation
//! tests below can pin each detection.
//!
//! The checkers read the private fields directly, never the
//! clean-graph-asserting iteration API, reach classes through [`stored`]
//! rather than indexing the store, and canonicalize ids through a *bounded*
//! union-find walk — so a deliberately corrupted graph (even one with a
//! union-find cycle, on which `find` would not terminate) is diagnosed
//! instead of crashed on.

use ::audit::{run_checks, AuditLevel, AuditReport, Check, RuleId, Severity};
use fxhash::{FxHashMap, FxHashSet};

use super::{op_signature, EClass, EGraph, DEAD};
use crate::{Id, Language, UnionFind};

/// Longest parent chain the bounded walks tolerate before declaring the
/// union-find corrupt. Path compression keeps real chains far shorter.
const FIND_BUDGET: usize = 1 << 16;

/// Bounded, range-guarded `find`: returns `None` when the chain leaves the
/// id space or fails to reach a root within [`FIND_BUDGET`] steps.
fn safe_find(uf: &UnionFind, mut id: Id) -> Option<Id> {
    for _ in 0..FIND_BUDGET {
        if id.index() >= uf.len() {
            return None;
        }
        let parent = uf.parent(id);
        if parent == id {
            return Some(id);
        }
        id = parent;
    }
    None
}

/// The classes in `order` with their ids, skipping an ordered id whose slot
/// is dead or out of range ([`CanonicalClass`] reports it).
fn stored<L: Language>(egraph: &EGraph<L>) -> impl Iterator<Item = (Id, &EClass<L>)> {
    egraph.order.iter().filter_map(|&id| {
        let class = egraph.classes.get(egraph.slot_of(id)?)?;
        Some((id, class))
    })
}

/// Canonicalizes a node's children through [`safe_find`]; `None` when any
/// child cannot be canonicalized.
fn safe_canonicalize<L: Language>(uf: &UnionFind, node: &L) -> Option<L> {
    let mut out = node.clone();
    for child in out.children_mut() {
        *child = safe_find(uf, *child)?;
    }
    Some(out)
}

/// [`RuleId::EgraphDirty`]: the worklists must be empty at a phase boundary
/// (the graph has been rebuilt).
struct Dirty;

impl<L: Language> Check<EGraph<L>> for Dirty {
    fn rule(&self) -> RuleId {
        RuleId::EgraphDirty
    }

    fn check(&self, egraph: &EGraph<L>, report: &mut AuditReport) {
        if egraph.is_dirty() {
            report.push(
                RuleId::EgraphDirty,
                Severity::Error,
                "worklists",
                "e-graph is dirty (pending repairs); rebuild() must run before the phase boundary",
            );
        }
    }
}

/// [`RuleId::EgraphUnionFind`]: parent slots are in range, chains terminate,
/// and root sizes match the member count of each set.
struct UnionFindSane;

impl<L: Language> Check<EGraph<L>> for UnionFindSane {
    fn rule(&self) -> RuleId {
        RuleId::EgraphUnionFind
    }

    fn check(&self, egraph: &EGraph<L>, report: &mut AuditReport) {
        let uf = &egraph.unionfind;
        let n = uf.len();
        let mut members: FxHashMap<Id, u32> = FxHashMap::default();
        for index in 0..n {
            let id = Id::from(index);
            if uf.parent(id).index() >= n {
                report.push(
                    RuleId::EgraphUnionFind,
                    Severity::Error,
                    format!("id {index}"),
                    format!(
                        "parent slot {} is out of range ({n} ids)",
                        uf.parent(id).index()
                    ),
                );
                continue;
            }
            match safe_find(uf, id) {
                Some(root) => *members.entry(root).or_insert(0) += 1,
                None => report.push(
                    RuleId::EgraphUnionFind,
                    Severity::Error,
                    format!("id {index}"),
                    "parent chain does not terminate (cycle or budget exceeded)",
                ),
            }
        }
        for (root, count) in members {
            let stored = uf.sizes[root.index()];
            if stored != count {
                report.push(
                    RuleId::EgraphUnionFind,
                    Severity::Error,
                    format!("root {root}"),
                    format!("stored size {stored} disagrees with {count} reachable members"),
                );
            }
        }
    }
}

/// [`RuleId::EgraphCanonicalClass`]: every class-map key is canonical, the
/// class records its own id, and no class is empty; the dense store agrees
/// with the canonical ids: one slot per issued id, a live slot for every
/// ordered id and for no merged-away one, and as many stored classes as
/// live slots.
struct CanonicalClass;

impl<L: Language> Check<EGraph<L>> for CanonicalClass {
    fn rule(&self) -> RuleId {
        RuleId::EgraphCanonicalClass
    }

    fn check(&self, egraph: &EGraph<L>, report: &mut AuditReport) {
        let uf = &egraph.unionfind;
        if egraph.slot.len() != uf.len() {
            report.push(
                RuleId::EgraphCanonicalClass,
                Severity::Error,
                "store",
                format!("{} ids issued, but {} slots", uf.len(), egraph.slot.len()),
            );
        }
        for &id in &egraph.order {
            if egraph
                .slot_of(id)
                .is_none_or(|at| at >= egraph.classes.len())
            {
                report.push(
                    RuleId::EgraphCanonicalClass,
                    Severity::Error,
                    format!("class {id}"),
                    "ordered id has a dead slot",
                );
            }
        }
        for (index, &at) in egraph.slot.iter().enumerate() {
            let id = Id::from(index);
            if at != DEAD && safe_find(uf, id) != Some(id) {
                report.push(
                    RuleId::EgraphCanonicalClass,
                    Severity::Error,
                    format!("id {index}"),
                    "merged-away id has a live slot",
                );
            }
        }
        let live = egraph.slot.iter().filter(|&&at| at != DEAD).count();
        if egraph.order.len() != live || egraph.classes.len() != live {
            report.push(
                RuleId::EgraphCanonicalClass,
                Severity::Error,
                "store",
                format!(
                    "{} ordered ids and {} stored classes, but {live} live slots",
                    egraph.order.len(),
                    egraph.classes.len()
                ),
            );
        }
        for (id, class) in stored(egraph) {
            if safe_find(uf, id) != Some(id) {
                report.push(
                    RuleId::EgraphCanonicalClass,
                    Severity::Error,
                    format!("class {id}"),
                    "class-map key is not a canonical id",
                );
            }
            if class.id != id {
                report.push(
                    RuleId::EgraphCanonicalClass,
                    Severity::Error,
                    format!("class {id}"),
                    format!("class records wrong id {}", class.id),
                );
            }
            if class.nodes.is_empty() {
                report.push(
                    RuleId::EgraphCanonicalClass,
                    Severity::Error,
                    format!("class {id}"),
                    "class is empty",
                );
            }
        }
    }
}

/// [`RuleId::EgraphCanonicalChildren`]: after a rebuild every stored node
/// has canonical children.
struct CanonicalChildren;

impl<L: Language> Check<EGraph<L>> for CanonicalChildren {
    fn rule(&self) -> RuleId {
        RuleId::EgraphCanonicalChildren
    }

    fn check(&self, egraph: &EGraph<L>, report: &mut AuditReport) {
        let uf = &egraph.unionfind;
        for (id, class) in stored(egraph) {
            for node in &class.nodes {
                for &child in node.children() {
                    if safe_find(uf, child) != Some(child) {
                        report.push(
                            RuleId::EgraphCanonicalChildren,
                            Severity::Error,
                            format!("class {id}"),
                            format!("node {node:?} has non-canonical child {child}"),
                        );
                    }
                }
            }
        }
    }
}

/// [`RuleId::EgraphCongruence`]: no two distinct classes contain the same
/// canonical node form.
struct Congruence;

impl<L: Language> Check<EGraph<L>> for Congruence {
    fn rule(&self) -> RuleId {
        RuleId::EgraphCongruence
    }

    fn check(&self, egraph: &EGraph<L>, report: &mut AuditReport) {
        let uf = &egraph.unionfind;
        let mut seen: FxHashMap<L, Id> = FxHashMap::default();
        for (id, class) in stored(egraph) {
            for node in &class.nodes {
                let Some(canon) = safe_canonicalize(uf, node) else {
                    continue; // UnionFindSane reports the broken chain
                };
                match seen.get(&canon) {
                    Some(&other) if other != id => report.push(
                        RuleId::EgraphCongruence,
                        Severity::Error,
                        format!("class {id}"),
                        format!("congruence violated: {node:?} also appears in class {other}"),
                    ),
                    _ => {
                        seen.insert(canon, id);
                    }
                }
            }
        }
    }
}

/// [`RuleId::EgraphHashcons`]: every stored node resolves through the memo
/// to its owning class, and every canonically-keyed memo entry is present in
/// the class it names (stale-keyed entries await compaction and are exempt).
struct Hashcons;

impl<L: Language> Check<EGraph<L>> for Hashcons {
    fn rule(&self) -> RuleId {
        RuleId::EgraphHashcons
    }

    fn check(&self, egraph: &EGraph<L>, report: &mut AuditReport) {
        let uf = &egraph.unionfind;
        let memo: FxHashMap<&L, Id> = egraph.memo.iter().map(|(node, &id)| (node, id)).collect();
        for (id, class) in stored(egraph) {
            for node in &class.nodes {
                match memo.get(node) {
                    Some(&m) if safe_find(uf, m) == Some(id) => {}
                    Some(&m) => report.push(
                        RuleId::EgraphHashcons,
                        Severity::Error,
                        format!("class {id}"),
                        format!("hashcons points {node:?} to {m}, but it lives in {id}"),
                    ),
                    None => report.push(
                        RuleId::EgraphHashcons,
                        Severity::Error,
                        format!("class {id}"),
                        format!("node {node:?} is missing from the hashcons"),
                    ),
                }
            }
        }
        for (node, &id) in &egraph.memo {
            let canonical = node.children().iter().all(|&c| safe_find(uf, c) == Some(c));
            if !canonical {
                continue;
            }
            let Some(class_id) = safe_find(uf, id) else {
                continue;
            };
            let present = egraph
                .slot_of(class_id)
                .and_then(|at| egraph.classes.get(at))
                .is_some_and(|class| class.nodes.iter().any(|n| n == node));
            if !present {
                report.push(
                    RuleId::EgraphHashcons,
                    Severity::Error,
                    format!("class {class_id}"),
                    format!("canonical hashcons entry {node:?} -> {id} is absent from its class"),
                );
            }
        }
    }
}

/// [`RuleId::EgraphParents`]: the incrementally maintained parent lists
/// cover every child→user edge a full scan finds (compared canonicalized,
/// since entries may be stale in form).
struct Parents;

impl<L: Language> Check<EGraph<L>> for Parents {
    fn rule(&self) -> RuleId {
        RuleId::EgraphParents
    }

    fn check(&self, egraph: &EGraph<L>, report: &mut AuditReport) {
        let uf = &egraph.unionfind;
        let mut parent_sets: FxHashMap<Id, FxHashSet<(L, Id)>> = FxHashMap::default();
        for (id, class) in stored(egraph) {
            let set = class
                .parents()
                .filter_map(|(node, pclass)| {
                    Some((safe_canonicalize(uf, node)?, safe_find(uf, pclass)?))
                })
                .collect();
            parent_sets.insert(id, set);
        }
        for (id, class) in stored(egraph) {
            for node in &class.nodes {
                let Some(canon) = safe_canonicalize(uf, node) else {
                    continue; // UnionFindSane reports the broken chain
                };
                for &child in node.children() {
                    let Some(child) = safe_find(uf, child) else {
                        continue;
                    };
                    let covered = parent_sets
                        .get(&child)
                        .is_some_and(|set| set.contains(&(canon.clone(), id)));
                    if !covered {
                        report.push(
                            RuleId::EgraphParents,
                            Severity::Error,
                            format!("class {child}"),
                            format!("parent list misses user {node:?} (class {id})"),
                        );
                    }
                }
            }
        }
    }
}

/// [`RuleId::EgraphOpIndex`]: the operator index covers every (op, class)
/// pair of the live nodes (listed ids may be stale; compared canonicalized),
/// and every class's operator signature covers the operators of its nodes.
struct OpIndex;

impl<L: Language> Check<EGraph<L>> for OpIndex {
    fn rule(&self) -> RuleId {
        RuleId::EgraphOpIndex
    }

    fn check(&self, egraph: &EGraph<L>, report: &mut AuditReport) {
        let uf = &egraph.unionfind;
        let mut op_sets: FxHashMap<u64, FxHashSet<Id>> = FxHashMap::default();
        for (&key, ids) in &egraph.classes_by_op {
            op_sets.insert(key, ids.iter().filter_map(|&i| safe_find(uf, i)).collect());
        }
        for (id, class) in stored(egraph) {
            for node in &class.nodes {
                let indexed = op_sets
                    .get(&node.op_key())
                    .is_some_and(|ids| ids.contains(&id));
                if !indexed {
                    report.push(
                        RuleId::EgraphOpIndex,
                        Severity::Error,
                        format!("class {id}"),
                        format!("operator index misses this class for node {node:?}"),
                    );
                }
                if class.sig & op_signature(node.op_key()) == 0 {
                    report.push(
                        RuleId::EgraphOpIndex,
                        Severity::Error,
                        format!("class {id}"),
                        format!("operator signature misses the operator of node {node:?}"),
                    );
                }
            }
        }
    }
}

/// [`RuleId::EgraphNodeCount`]: the incrementally maintained live-node
/// counter equals the sum of the class node lists.
struct NodeCount;

impl<L: Language> Check<EGraph<L>> for NodeCount {
    fn rule(&self) -> RuleId {
        RuleId::EgraphNodeCount
    }

    fn check(&self, egraph: &EGraph<L>, report: &mut AuditReport) {
        let counted: usize = stored(egraph).map(|(_, class)| class.nodes.len()).sum();
        if counted != egraph.total_nodes() {
            report.push(
                RuleId::EgraphNodeCount,
                Severity::Error,
                "node counter",
                format!(
                    "counter says {} live nodes, class lists hold {counted}",
                    egraph.total_nodes()
                ),
            );
        }
    }
}

/// The full e-graph catalog (all nine rules; every one is cheap — linear in
/// the graph with hashing).
pub fn egraph_catalog<L: Language>() -> Vec<Box<dyn Check<EGraph<L>>>> {
    vec![
        Box::new(Dirty),
        Box::new(UnionFindSane),
        Box::new(CanonicalClass),
        Box::new(CanonicalChildren),
        Box::new(Congruence),
        Box::new(Hashcons),
        Box::new(Parents),
        Box::new(OpIndex),
        Box::new(NodeCount),
    ]
}

/// Audits an e-graph with the full catalog at the given level.
pub fn audit_egraph<L: Language>(egraph: &EGraph<L>, level: AuditLevel) -> AuditReport {
    run_checks(egraph, &egraph_catalog(), level)
}

/// Panics with the report unless `egraph` audits clean at
/// [`AuditLevel::Paranoid`]: the invariant assertion of this crate's unit
/// tests.
#[cfg(test)]
pub(crate) fn assert_audit_clean<L: Language>(egraph: &EGraph<L>) {
    let report = audit_egraph(egraph, AuditLevel::Paranoid);
    assert!(report.is_clean(), "e-graph audit not clean:\n{report}");
}

/// Mutation tests: each starts from a clean graph, corrupts one private
/// field directly, and asserts the expected rule fires.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymbolLang;

    fn leaf(name: &str) -> SymbolLang {
        SymbolLang::leaf(name)
    }

    fn and(a: Id, b: Id) -> SymbolLang {
        SymbolLang::new("and", vec![a, b])
    }

    fn not(a: Id) -> SymbolLang {
        SymbolLang::new("not", vec![a])
    }

    fn slot(eg: &EGraph<SymbolLang>, id: Id) -> usize {
        eg.slot_of(id).expect("a live class")
    }

    fn fired(eg: &EGraph<SymbolLang>) -> Vec<RuleId> {
        audit_egraph(eg, AuditLevel::Paranoid).fired_rules()
    }

    /// `x`, `y`, `x & y`, `x | y` in four distinct classes, rebuilt.
    fn egraph_base() -> (EGraph<SymbolLang>, Id, Id, Id, Id) {
        let mut eg = EGraph::new();
        let x = eg.add(leaf("x"));
        let y = eg.add(leaf("y"));
        let a = eg.add(and(x, y));
        let o = eg.add(SymbolLang::new("or", vec![x, y]));
        eg.rebuild();
        assert_audit_clean(&eg);
        (eg, x, y, a, o)
    }

    #[test]
    fn egraph_dirty_fires_on_pending_work() {
        let (mut eg, x, ..) = egraph_base();
        eg.pending.push(x);
        assert_eq!(fired(&eg), vec![RuleId::EgraphDirty]);
    }

    #[test]
    fn egraph_union_find_fires_on_corrupt_root_size() {
        let (mut eg, x, ..) = egraph_base();
        eg.unionfind.sizes[x.index()] = 7;
        assert_eq!(fired(&eg), vec![RuleId::EgraphUnionFind]);
    }

    #[test]
    fn egraph_union_find_fires_on_parent_cycle() {
        let (mut eg, x, y, ..) = egraph_base();
        // x and y now parent each other: `find` would never terminate. The
        // class map keyed at x/y also stops canonicalizing, so the class rule
        // fires collaterally; the union-find rule is the one under test.
        eg.unionfind.parents[x.index()] = y;
        eg.unionfind.parents[y.index()] = x;
        let fired = fired(&eg);
        assert!(
            fired.contains(&RuleId::EgraphUnionFind),
            "expected the union-find rule in {fired:?}"
        );
    }

    #[test]
    fn egraph_canonical_class_fires_on_emptied_class() {
        let (mut eg, _, y, ..) = egraph_base();
        // Hollow out y's class, keeping the memo and live counter consistent
        // so only the class-shape rule can fire.
        let at = slot(&eg, y);
        eg.classes[at].nodes.clear();
        eg.memo.remove(&leaf("y"));
        eg.live_nodes -= 1;
        assert_eq!(fired(&eg), vec![RuleId::EgraphCanonicalClass]);
    }

    #[test]
    fn egraph_canonical_class_fires_on_live_slot_of_merged_id() {
        let (mut eg, x, y, ..) = egraph_base();
        let (root, _) = eg.union(x, y);
        eg.rebuild();
        assert_audit_clean(&eg);

        // The merged-away id keeps a live slot (pointing at the winner's
        // class): lookups through `find` never see it, so only the store's
        // own bookkeeping is wrong.
        let loser = if root == x { y } else { x };
        eg.slot[loser.index()] = slot(&eg, root) as u32;
        assert_eq!(fired(&eg), vec![RuleId::EgraphCanonicalClass]);
    }

    #[test]
    fn egraph_canonical_children_fires_on_stale_child() {
        let mut eg = EGraph::new();
        let x = eg.add(leaf("x"));
        let y = eg.add(leaf("y"));
        let n = eg.add(not(y));
        let (root, _) = eg.union(x, y);
        eg.rebuild();
        assert_audit_clean(&eg);

        // Rewrite Not's stored operand back to the merged-away id, moving the
        // memo entry along so only the canonical-children rule can fire.
        let loser = if root == x { y } else { x };
        let n_class = eg.find(n);
        let at = slot(&eg, n_class);
        eg.classes[at].nodes[0] = not(loser);
        eg.memo.insert(not(loser), n_class);
        eg.memo.remove(&not(root));
        assert_eq!(fired(&eg), vec![RuleId::EgraphCanonicalChildren]);
    }

    #[test]
    fn egraph_congruence_fires_on_duplicated_form() {
        let (mut eg, x, y, _, o) = egraph_base();
        // The Or class grows a copy of the And node: two classes now hold the
        // same canonical form. The stray copy also genuinely breaks the
        // hashcons/parent/op-index invariants, so those may fire alongside.
        let at = slot(&eg, o);
        eg.classes[at].nodes.push(and(x, y));
        eg.live_nodes += 1;
        let fired = fired(&eg);
        assert!(
            fired.contains(&RuleId::EgraphCongruence),
            "expected the congruence rule in {fired:?}"
        );
    }

    #[test]
    fn egraph_hashcons_fires_on_missing_memo_entry() {
        let (mut eg, ..) = egraph_base();
        eg.memo.remove(&leaf("x"));
        assert_eq!(fired(&eg), vec![RuleId::EgraphHashcons]);
    }

    #[test]
    fn egraph_parents_fires_on_dropped_parent_edge() {
        let (mut eg, x, ..) = egraph_base();
        // x is used by both the And and the Or node; its parent list forgets.
        let at = slot(&eg, x);
        eg.classes[at].parents.clear();
        assert_eq!(fired(&eg), vec![RuleId::EgraphParents]);
    }

    #[test]
    fn egraph_op_index_fires_on_cleared_index() {
        let (mut eg, ..) = egraph_base();
        eg.classes_by_op.clear();
        assert_eq!(fired(&eg), vec![RuleId::EgraphOpIndex]);
    }

    #[test]
    fn egraph_op_index_fires_on_union_that_forgets_the_loser_signature() {
        let mut eg = EGraph::new();
        let a = eg.add(leaf("a"));
        let b = eg.add(leaf("b"));
        let fa = eg.add(SymbolLang::new("f", vec![a]));
        let gb = eg.add(SymbolLang::new("g", vec![b]));
        let f_bit = op_signature(eg.class(fa).nodes[0].op_key());
        let g_bit = op_signature(eg.class(gb).nodes[0].op_key());
        assert_ne!(f_bit, g_bit, "the two operators need distinct bits");
        let (root, _) = eg.union(fa, gb);
        eg.rebuild();
        assert_audit_clean(&eg);

        // The winner keeps only its own operator's bit, as a `union` that
        // does not OR in the loser's signature would leave it.
        let own_bit = if root == fa { f_bit } else { g_bit };
        let at = slot(&eg, root);
        eg.classes[at].sig = own_bit;
        assert_eq!(fired(&eg), vec![RuleId::EgraphOpIndex]);
    }

    #[test]
    fn egraph_node_count_fires_on_skewed_counter() {
        let (mut eg, ..) = egraph_base();
        eg.live_nodes += 5;
        assert_eq!(fired(&eg), vec![RuleId::EgraphNodeCount]);
    }
}
