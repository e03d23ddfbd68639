//! Checkers over [`egraph::EGraph`]: the typed successors of the
//! string-typed `EGraph::check_invariants` (now a private helper of the
//! `egraph` unit tests), split one rule per failure class so mutation tests
//! can pin each detection.
//!
//! All checkers read through the raw audit accessors
//! ([`EGraph::memo_entries`], [`EGraph::raw_classes`], …), never the
//! clean-graph-asserting iteration API, and canonicalize ids through a
//! *bounded* union-find walk — so a deliberately corrupted graph (even one
//! with a union-find cycle, on which `find` would not terminate) is
//! diagnosed instead of crashed on.

use egraph::{EGraph, Id, Language, UnionFind};
use fxhash::{FxHashMap, FxHashSet};

use crate::report::{AuditReport, RuleId, Severity};
use crate::Check;

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
pub struct Dirty;

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
pub struct UnionFindSane;

impl<L: Language> Check<EGraph<L>> for UnionFindSane {
    fn rule(&self) -> RuleId {
        RuleId::EgraphUnionFind
    }

    fn check(&self, egraph: &EGraph<L>, report: &mut AuditReport) {
        let uf = egraph.unionfind();
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
            let stored = uf.raw_size(root);
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
/// class records its own id, and no class is empty.
pub struct CanonicalClass;

impl<L: Language> Check<EGraph<L>> for CanonicalClass {
    fn rule(&self) -> RuleId {
        RuleId::EgraphCanonicalClass
    }

    fn check(&self, egraph: &EGraph<L>, report: &mut AuditReport) {
        let uf = egraph.unionfind();
        for (id, class) in egraph.raw_classes() {
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
pub struct CanonicalChildren;

impl<L: Language> Check<EGraph<L>> for CanonicalChildren {
    fn rule(&self) -> RuleId {
        RuleId::EgraphCanonicalChildren
    }

    fn check(&self, egraph: &EGraph<L>, report: &mut AuditReport) {
        let uf = egraph.unionfind();
        for (id, class) in egraph.raw_classes() {
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
pub struct Congruence;

impl<L: Language> Check<EGraph<L>> for Congruence {
    fn rule(&self) -> RuleId {
        RuleId::EgraphCongruence
    }

    fn check(&self, egraph: &EGraph<L>, report: &mut AuditReport) {
        let uf = egraph.unionfind();
        let mut seen: FxHashMap<L, Id> = FxHashMap::default();
        for (id, class) in egraph.raw_classes() {
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
pub struct Hashcons;

impl<L: Language> Check<EGraph<L>> for Hashcons {
    fn rule(&self) -> RuleId {
        RuleId::EgraphHashcons
    }

    fn check(&self, egraph: &EGraph<L>, report: &mut AuditReport) {
        let uf = egraph.unionfind();
        let memo: FxHashMap<&L, Id> = egraph.memo_entries().collect();
        for (id, class) in egraph.raw_classes() {
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
        for (node, id) in egraph.memo_entries() {
            let canonical = node.children().iter().all(|&c| safe_find(uf, c) == Some(c));
            if !canonical {
                continue;
            }
            let Some(class_id) = safe_find(uf, id) else {
                continue;
            };
            let present = egraph
                .raw_class(class_id)
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
pub struct Parents;

impl<L: Language> Check<EGraph<L>> for Parents {
    fn rule(&self) -> RuleId {
        RuleId::EgraphParents
    }

    fn check(&self, egraph: &EGraph<L>, report: &mut AuditReport) {
        let uf = egraph.unionfind();
        let mut parent_sets: FxHashMap<Id, FxHashSet<(L, Id)>> = FxHashMap::default();
        for (id, class) in egraph.raw_classes() {
            let set = class
                .parents()
                .filter_map(|(node, pclass)| {
                    Some((safe_canonicalize(uf, node)?, safe_find(uf, pclass)?))
                })
                .collect();
            parent_sets.insert(id, set);
        }
        for (id, class) in egraph.raw_classes() {
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
/// pair of the live nodes (listed ids may be stale; compared canonicalized).
pub struct OpIndex;

impl<L: Language> Check<EGraph<L>> for OpIndex {
    fn rule(&self) -> RuleId {
        RuleId::EgraphOpIndex
    }

    fn check(&self, egraph: &EGraph<L>, report: &mut AuditReport) {
        let uf = egraph.unionfind();
        let mut op_sets: FxHashMap<u64, FxHashSet<Id>> = FxHashMap::default();
        for (key, ids) in egraph.op_index_entries() {
            op_sets.insert(key, ids.iter().filter_map(|&i| safe_find(uf, i)).collect());
        }
        for (id, class) in egraph.raw_classes() {
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
            }
        }
    }
}

/// [`RuleId::EgraphNodeCount`]: the incrementally maintained live-node
/// counter equals the sum of the class node lists.
pub struct NodeCount;

impl<L: Language> Check<EGraph<L>> for NodeCount {
    fn rule(&self) -> RuleId {
        RuleId::EgraphNodeCount
    }

    fn check(&self, egraph: &EGraph<L>, report: &mut AuditReport) {
        let counted: usize = egraph
            .raw_classes()
            .map(|(_, class)| class.nodes.len())
            .sum();
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
pub fn audit_egraph<L: Language>(egraph: &EGraph<L>, level: crate::AuditLevel) -> AuditReport {
    crate::run_checks(egraph, &egraph_catalog(), level)
}
