//! The e-graph: hash-consed e-nodes grouped into e-classes with deferred,
//! *incremental* congruence-closure maintenance ("rebuilding").
//!
//! # The worklist algorithm
//!
//! Following egg (Willsey et al., POPL 2021), congruence repair is deferred
//! and worklist-driven rather than implemented as whole-graph
//! canonicalization passes:
//!
//! * Every e-class carries a **parent list**: the `(e-node, class)` pairs
//!   that reference it as a child. [`EGraph::add`] appends to the lists of
//!   the new node's children; [`EGraph::union`] concatenates the loser's
//!   list onto the winner's.
//! * [`EGraph::union`] only updates the union-find (which merges by set size)
//!   and moves the loser's nodes/parents into the winner — it does *not*
//!   restore congruence. Instead the winner is pushed onto a **dirty-class
//!   worklist**.
//! * [`EGraph::rebuild`] drains the worklist: for each dirty class it
//!   re-canonicalizes the parent entries, re-keys the hashcons, and unions
//!   any two parents that collapse to the same canonical e-node (upward
//!   congruence propagation). Unions performed during repair push new dirty
//!   classes, so the loop runs to a fixpoint.
//! * Only classes whose nodes could have gone stale (parents of dirty
//!   classes and union winners) have their node lists re-canonicalized and
//!   deduplicated at the end of a rebuild.
//!
//! The cost of a `rebuild` is therefore proportional to the **changed region
//! of the graph** — the classes touched by unions and their immediate
//! parents — not to the total graph size. A rebuild with an empty worklist
//! is O(1). The differential property tests hold it to a congruence closure
//! they compute from scratch over their own operation log.
//!
//! The e-graph also maintains an **operator discriminator index** mapping
//! [`Language::op_key`] values to the classes containing a node with that
//! operator; [`crate::Pattern`] uses it so a rule only visits classes whose
//! nodes can match its root symbol.

use crate::{Id, Language, RecExpr, UnionFind};
use fxhash::{FxHashMap, FxHashSet};

/// An equivalence class of e-nodes.
#[derive(Debug, Clone)]
pub struct EClass<L> {
    /// Canonical id of this class.
    pub id: Id,
    /// The e-nodes belonging to this class. After [`EGraph::rebuild`] the
    /// children of every node are canonical and the list is deduplicated.
    pub nodes: Vec<L>,
    /// The `(e-node, class)` pairs that reference this class as a child.
    /// Entries may be stale between rebuilds (non-canonical child ids or
    /// class ids); canonicalize through [`EGraph::find`] before use.
    pub(crate) parents: Vec<(L, Id)>,
}

impl<L: Language> EClass<L> {
    /// Number of e-nodes in the class.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the class has no nodes (never the case in a
    /// well-formed e-graph).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates over the e-nodes of this class.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = &L> {
        self.nodes.iter()
    }

    /// Iterates over the incrementally maintained `(parent e-node, parent
    /// class)` pairs of this class.
    ///
    /// Entries are maintained by [`EGraph::add`]/[`EGraph::union`] and
    /// repaired lazily: a pair's node form or class id may be stale (merged
    /// away) even on a clean graph. Map node children and the class id
    /// through [`EGraph::find`] before comparing; [`EGraph::parent_index`]
    /// does exactly that.
    #[inline]
    pub fn parents(&self) -> impl Iterator<Item = (&L, Id)> {
        self.parents.iter().map(|(node, id)| (node, *id))
    }
}

/// An e-graph over language `L`.
///
/// The e-graph maintains a congruence relation over its e-classes: if two
/// classes are merged, any two nodes that become structurally identical up to
/// class equivalence are merged as well. Following egg, congruence repair is
/// *deferred*: callers perform any number of [`EGraph::add`] / [`EGraph::union`]
/// operations and then call [`EGraph::rebuild`] once, which restores the
/// invariants by draining a dirty-class worklist (see the module docs for the
/// algorithm and its complexity model).
#[derive(Debug, Clone, Default)]
pub struct EGraph<L: Language> {
    unionfind: UnionFind,
    memo: FxHashMap<L, Id>,
    classes: FxHashMap<Id, EClass<L>>,
    /// Operator discriminator index: `op_key` → classes that were created
    /// holding a node with that operator. Ids may be stale (canonicalize on
    /// read); `add` only appends, and rebuild compacts the index alongside
    /// the hashcons once stale entries outnumber live nodes.
    classes_by_op: FxHashMap<u64, Vec<Id>>,
    /// Dirty classes whose parents must be repaired by the next rebuild.
    pending: Vec<Id>,
    /// Classes whose `nodes` lists may hold stale child ids or duplicates.
    stale_nodes: FxHashSet<Id>,
    /// Sum of `nodes.len()` over all classes, maintained incrementally.
    live_nodes: usize,
    n_unions: usize,
}

impl<L: Language> EGraph<L> {
    /// Creates an empty e-graph.
    pub fn new() -> Self {
        EGraph {
            unionfind: UnionFind::new(),
            memo: FxHashMap::default(),
            classes: FxHashMap::default(),
            classes_by_op: FxHashMap::default(),
            pending: Vec::new(),
            stale_nodes: FxHashSet::default(),
            live_nodes: 0,
            n_unions: 0,
        }
    }

    /// Canonicalizes an e-class id.
    #[inline]
    pub fn find(&self, id: Id) -> Id {
        self.unionfind.find(id)
    }

    /// Returns the canonical form of an e-node (children canonicalized).
    #[inline]
    pub fn canonicalize(&self, node: &L) -> L {
        node.map_children(|c| self.find(c))
    }

    /// Looks up an e-node, returning its class if it is already represented.
    pub fn lookup(&self, node: &L) -> Option<Id> {
        let node = self.canonicalize(node);
        self.memo.get(&node).map(|&id| self.find(id))
    }

    /// Adds an e-node (hash-consed); returns the id of its e-class.
    pub fn add(&mut self, node: L) -> Id {
        let node = self.canonicalize(&node);
        if let Some(&id) = self.memo.get(&node) {
            return self.find(id);
        }
        let id = self.unionfind.make_set();
        for &child in node.children() {
            self.classes
                .get_mut(&child)
                .unwrap_or_else(|| unreachable!("canonical child class must exist"))
                .parents
                .push((node.clone(), id));
        }
        self.classes_by_op
            .entry(node.op_key())
            .or_default()
            .push(id);
        self.classes.insert(
            id,
            EClass {
                id,
                nodes: vec![node.clone()],
                parents: Vec::new(),
            },
        );
        self.memo.insert(node, id);
        self.live_nodes += 1;
        id
    }

    /// Adds every node of a [`RecExpr`], returning the class of its root.
    pub fn add_expr(&mut self, expr: &RecExpr<L>) -> Id {
        let mut ids: Vec<Id> = Vec::with_capacity(expr.len());
        for node in expr.as_ref() {
            let node = node.map_children(|c| ids[c.index()]);
            ids.push(self.add(node));
        }
        match ids.last() {
            Some(&root) => root,
            None => unreachable!("cannot add an empty expression"),
        }
    }

    /// Merges two e-classes. Returns the surviving canonical id and whether
    /// anything changed. Congruence is restored lazily by [`EGraph::rebuild`]:
    /// this only merges the union-find sets (by size), concatenates the node
    /// and parent lists, and enqueues the winner on the dirty worklist.
    pub fn union(&mut self, a: Id, b: Id) -> (Id, bool) {
        let a = self.find(a);
        let b = self.find(b);
        if a == b {
            return (a, false);
        }
        let root = self.unionfind.union(a, b);
        let loser = if root == a { b } else { a };
        let loser_class = self
            .classes
            .remove(&loser)
            .unwrap_or_else(|| unreachable!("loser class must exist"));
        let winner = self
            .classes
            .get_mut(&root)
            .unwrap_or_else(|| unreachable!("winner class must exist"));
        winner.nodes.extend(loser_class.nodes);
        winner.parents.extend(loser_class.parents);
        self.n_unions += 1;
        self.pending.push(root);
        self.stale_nodes.insert(root);
        (root, true)
    }

    /// Returns `true` if the two ids refer to the same e-class.
    #[inline]
    pub fn same(&self, a: Id, b: Id) -> bool {
        self.find(a) == self.find(b)
    }

    /// Restores the congruence and hash-consing invariants after a batch of
    /// unions by draining the dirty-class worklist (see the module docs).
    /// Returns the number of additional unions performed by congruence
    /// propagation. On an already-clean graph this is O(1).
    pub fn rebuild(&mut self) -> usize {
        let mut congruence_unions = 0;
        while let Some(class) = self.pending.pop() {
            congruence_unions += self.repair(class);
        }
        self.repair_node_lists();
        self.compact_indexes_if_bloated();
        congruence_unions
    }

    /// Repairs the parents of one dirty class: re-canonicalize each parent
    /// entry, re-key the hashcons, and union parents that collapse to the
    /// same canonical e-node. Returns the number of congruence unions.
    fn repair(&mut self, class: Id) -> usize {
        let class = self.unionfind.find_mut(class);
        let mut parents = match self.classes.get_mut(&class) {
            Some(c) => std::mem::take(&mut c.parents),
            None => return 0,
        };
        for (node, pclass) in &mut parents {
            let mut changed = false;
            self.memo.remove(node);
            node.update_children(|c| {
                let root = self.unionfind.find_mut(c);
                changed |= root != c;
                root
            });
            let proot = self.unionfind.find_mut(*pclass);
            changed |= proot != *pclass;
            *pclass = proot;
            if changed {
                // The parent class's node list holds the same (stale) form.
                self.stale_nodes.insert(proot);
            }
        }
        parents.sort_unstable();
        parents.dedup();

        let mut unions = 0;
        for (node, pclass) in &parents {
            if let Some(other) = self.memo.insert(node.clone(), *pclass) {
                if self.find(other) != self.find(*pclass) {
                    let (root, merged) = self.union(other, *pclass);
                    if merged {
                        unions += 1;
                    }
                    self.memo.insert(node.clone(), root);
                }
            }
        }
        // A congruence union above may have merged `class` itself away;
        // reattach the repaired parent entries to the surviving class.
        let owner = self.unionfind.find_mut(class);
        let owner_class = self
            .classes
            .get_mut(&owner)
            .unwrap_or_else(|| unreachable!("canonical class must exist"));
        if owner_class.parents.is_empty() {
            owner_class.parents = parents;
        } else {
            owner_class.parents.extend(parents);
        }
        unions
    }

    /// Re-canonicalizes, sorts and deduplicates the node lists of the classes
    /// marked stale during unions and parent repair.
    fn repair_node_lists(&mut self) {
        let mut stale: Vec<Id> = self
            .stale_nodes
            .drain()
            .collect::<Vec<_>>()
            .into_iter()
            .map(|id| self.unionfind.find_mut(id))
            .collect();
        stale.sort_unstable();
        stale.dedup();
        let uf = &self.unionfind;
        for id in stale {
            if let Some(class) = self.classes.get_mut(&id) {
                let before = class.nodes.len();
                for node in &mut class.nodes {
                    node.update_children(|c| uf.find(c));
                }
                class.nodes.sort_unstable();
                class.nodes.dedup();
                self.live_nodes -= before - class.nodes.len();
            }
        }
    }

    /// Rebuilds the hashcons and the operator index from the (canonical)
    /// class node lists when stale entries — memo keys left behind by repair,
    /// or op-index ids pointing at merged-away classes — outnumber the live
    /// nodes. Amortized O(1): compaction is linear but only triggers after
    /// linear growth, and both structures shrink back to O(live nodes).
    fn compact_indexes_if_bloated(&mut self) {
        let budget = self.live_nodes.saturating_mul(2);
        let memo_bloated = self.memo.len() > budget;
        let index_bloated = self.classes_by_op.values().map(Vec::len).sum::<usize>() > budget;
        if !memo_bloated && !index_bloated {
            return;
        }
        self.memo.clear();
        self.classes_by_op.clear();
        for class in self.classes.values() {
            for node in &class.nodes {
                self.memo.insert(node.clone(), class.id);
                let ids = self.classes_by_op.entry(node.op_key()).or_default();
                if ids.last() != Some(&class.id) {
                    ids.push(class.id);
                }
            }
        }
        for ids in self.classes_by_op.values_mut() {
            ids.sort_unstable();
            ids.dedup();
        }
    }

    /// Returns `true` if unions have been performed since the last rebuild.
    #[inline]
    pub fn is_dirty(&self) -> bool {
        !self.pending.is_empty() || !self.stale_nodes.is_empty()
    }

    #[inline]
    fn debug_assert_clean(&self, what: &str) {
        debug_assert!(
            !self.is_dirty(),
            "{what} requires a clean e-graph; call rebuild() after union()"
        );
    }

    /// Number of e-classes.
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Total number of e-nodes across all classes. On a dirty graph this
    /// counts not-yet-deduplicated nodes, exactly like summing
    /// [`EClass::len`] over all classes.
    #[inline]
    pub fn total_nodes(&self) -> usize {
        self.live_nodes
    }

    /// Total number of unions performed (including congruence-induced ones).
    #[inline]
    pub fn num_unions(&self) -> usize {
        self.n_unions
    }

    /// Returns the e-class with the given id (canonicalized).
    ///
    /// The graph must be clean (rebuilt): on a dirty graph node lists may
    /// hold stale duplicates, which silently breaks consumers that treat the
    /// list as canonical (debug-asserted).
    ///
    /// # Panics
    /// Panics if the id does not refer to an existing class.
    pub fn class(&self, id: Id) -> &EClass<L> {
        self.debug_assert_clean("class()");
        let id = self.find(id);
        &self.classes[&id]
    }

    /// Returns the e-class with the given id, if it exists. Like
    /// [`EGraph::class`], debug-asserts a clean graph.
    pub fn get_class(&self, id: Id) -> Option<&EClass<L>> {
        self.debug_assert_clean("get_class()");
        let id = self.find(id);
        self.classes.get(&id)
    }

    /// Iterates over all e-classes. Debug-asserts a clean graph.
    pub fn classes(&self) -> impl Iterator<Item = &EClass<L>> {
        self.debug_assert_clean("classes()");
        self.classes.values()
    }

    /// Iterates over all canonical class ids. Debug-asserts a clean graph.
    pub fn class_ids(&self) -> impl Iterator<Item = Id> + '_ {
        self.debug_assert_clean("class_ids()");
        self.classes.keys().copied()
    }

    /// Canonical class ids in ascending order. Consumers whose output must
    /// not depend on hash-map iteration order (e.g. the choice-network
    /// exporter, which assigns circuit node ids per class) should enumerate
    /// classes through this instead of [`EGraph::classes`]. Debug-asserts a
    /// clean graph.
    pub fn class_ids_sorted(&self) -> Vec<Id> {
        self.debug_assert_clean("class_ids_sorted()");
        let mut ids: Vec<Id> = self.classes.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Returns the canonical ids of the classes containing at least one node
    /// whose [`Language::op_key`] equals `key`, deduplicated, in a
    /// deterministic order. Classes not returned are guaranteed not to
    /// contain a matching node, so pattern search can skip them.
    pub fn classes_for_op(&self, key: u64) -> Vec<Id> {
        self.debug_assert_clean("classes_for_op()");
        let mut out = Vec::new();
        if let Some(ids) = self.classes_by_op.get(&key) {
            let mut seen: FxHashSet<Id> = FxHashSet::default();
            for &id in ids {
                let canon = self.find(id);
                if seen.insert(canon) {
                    out.push(canon);
                }
            }
        }
        out
    }

    /// Builds, for every class, the list of `(parent class, parent node)`
    /// pairs that reference it, from the incrementally maintained per-class
    /// parent lists (canonicalized and deduplicated). The e-graph must be
    /// clean (rebuilt).
    pub fn parent_index(&self) -> FxHashMap<Id, Vec<(Id, L)>> {
        self.debug_assert_clean("parent_index()");
        let mut parents: FxHashMap<Id, Vec<(Id, L)>> = FxHashMap::default();
        for class in self.classes.values() {
            if class.parents.is_empty() {
                continue;
            }
            let mut list: Vec<(Id, L)> = class
                .parents
                .iter()
                .map(|(node, pclass)| (self.find(*pclass), self.canonicalize(node)))
                .collect();
            list.sort_unstable();
            list.dedup();
            parents.insert(class.id, list);
        }
        parents
    }

    // ------------------------------------------------------------------
    // Audit surface
    //
    // Raw read accessors for the `audit` crate's typed invariant checkers.
    // Unlike `classes()`/`class()` these never debug-assert a clean graph,
    // so an auditor can inspect a dirty or deliberately corrupted graph
    // without tripping assertions on the way to its diagnosis.
    // ------------------------------------------------------------------

    /// Iterates the raw hashcons entries `(node, class-at-insert-time)`.
    /// Keys may be stale (non-canonical) forms awaiting compaction; readers
    /// must canonicalize.
    pub fn memo_entries(&self) -> impl Iterator<Item = (&L, Id)> {
        self.memo.iter().map(|(node, &id)| (node, id))
    }

    /// Iterates `(map key, class)` pairs without the clean-graph debug
    /// assertion of [`EGraph::classes`].
    pub fn raw_classes(&self) -> impl Iterator<Item = (Id, &EClass<L>)> {
        self.classes.iter().map(|(&id, class)| (id, class))
    }

    /// Returns the class stored under exactly this key (no canonicalization,
    /// no clean-graph assertion).
    pub fn raw_class(&self, id: Id) -> Option<&EClass<L>> {
        self.classes.get(&id)
    }

    /// The union-find over e-class ids.
    pub fn unionfind(&self) -> &UnionFind {
        &self.unionfind
    }

    /// Iterates the operator-discriminator index entries; listed ids may be
    /// stale (canonicalize on read).
    pub fn op_index_entries(&self) -> impl Iterator<Item = (u64, &[Id])> {
        self.classes_by_op
            .iter()
            .map(|(&key, ids)| (key, ids.as_slice()))
    }

    // ------------------------------------------------------------------
    // Corruption hooks for the `audit` crate's mutation tests. Each one
    // deliberately breaks a single structure so a test can prove the
    // corresponding audit rule detects it. Never call from production code.
    // ------------------------------------------------------------------

    #[doc(hidden)]
    pub fn tamper_memo_insert(&mut self, node: L, id: Id) {
        self.memo.insert(node, id);
    }

    #[doc(hidden)]
    pub fn tamper_memo_remove(&mut self, node: &L) {
        self.memo.remove(node);
    }

    #[doc(hidden)]
    pub fn tamper_class_nodes_mut(&mut self, id: Id) -> Option<&mut Vec<L>> {
        self.classes.get_mut(&id).map(|class| &mut class.nodes)
    }

    #[doc(hidden)]
    pub fn tamper_parents_mut(&mut self, id: Id) -> Option<&mut Vec<(L, Id)>> {
        self.classes.get_mut(&id).map(|class| &mut class.parents)
    }

    #[doc(hidden)]
    pub fn tamper_set_live_nodes(&mut self, n: usize) {
        self.live_nodes = n;
    }

    #[doc(hidden)]
    pub fn tamper_pending_push(&mut self, id: Id) {
        self.pending.push(id);
    }

    #[doc(hidden)]
    pub fn tamper_op_index_clear(&mut self) {
        self.classes_by_op.clear();
    }

    #[doc(hidden)]
    pub fn tamper_unionfind_mut(&mut self) -> &mut UnionFind {
        &mut self.unionfind
    }

    /// Checks internal invariants (the oracle of this crate's unit tests):
    /// every class key is canonical, every node's children are canonical,
    /// no two distinct classes contain the same canonical node, the node
    /// counter matches the class lists, every canonical hashcons entry points
    /// to the class holding its node, and every child edge is covered by the
    /// child's parent list. Everything outside this crate asserts through
    /// `audit::audit_egraph`, which a lib-test build of this crate cannot link.
    #[cfg(test)]
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        if self.is_dirty() {
            return Err("e-graph is dirty; call rebuild() first".into());
        }
        // Canonicalized views built once so the per-node checks below stay
        // O(1): the parent relation and the operator index.
        let mut parent_sets: FxHashMap<Id, FxHashSet<(L, Id)>> = FxHashMap::default();
        for (&id, class) in &self.classes {
            let set = class
                .parents
                .iter()
                .map(|(node, pclass)| (self.canonicalize(node), self.find(*pclass)))
                .collect();
            parent_sets.insert(id, set);
        }
        let mut op_sets: FxHashMap<u64, FxHashSet<Id>> = FxHashMap::default();
        for (&key, ids) in &self.classes_by_op {
            op_sets.insert(key, ids.iter().map(|&i| self.find(i)).collect());
        }
        let mut seen: FxHashMap<&L, Id> = FxHashMap::default();
        let mut counted = 0usize;
        for (&id, class) in &self.classes {
            if self.find(id) != id {
                return Err(format!("class key {id} is not canonical"));
            }
            if class.id != id {
                return Err(format!("class {id} carries wrong id {}", class.id));
            }
            if class.nodes.is_empty() {
                return Err(format!("class {id} is empty"));
            }
            counted += class.nodes.len();
            for node in &class.nodes {
                for &child in node.children() {
                    if self.find(child) != child {
                        return Err(format!(
                            "node {node:?} in class {id} has non-canonical child {child}"
                        ));
                    }
                }
                if let Some(&other) = seen.get(node) {
                    if other != id {
                        return Err(format!(
                            "congruence violated: {node:?} appears in classes {other} and {id}"
                        ));
                    }
                }
                seen.insert(node, id);
                match self.memo.get(node) {
                    Some(&m) if self.find(m) == id => {}
                    Some(&m) => {
                        return Err(format!(
                            "hashcons points {node:?} to {m} but it lives in {id}"
                        ))
                    }
                    None => return Err(format!("node {node:?} missing from hashcons")),
                }
                // Every child edge must be covered by the child's parent
                // list (entries may be stale; compare canonicalized).
                for &child in node.children() {
                    let covered = parent_sets
                        .get(&child)
                        .is_some_and(|set| set.contains(&(node.clone(), id)));
                    if !covered {
                        return Err(format!(
                            "parent list of class {child} misses parent {node:?} (class {id})"
                        ));
                    }
                }
                // The operator index must cover the class under this node's key.
                let indexed = op_sets
                    .get(&node.op_key())
                    .is_some_and(|ids| ids.contains(&id));
                if !indexed {
                    return Err(format!("op index misses class {id} for node {node:?}"));
                }
            }
        }
        if counted != self.live_nodes {
            return Err(format!(
                "node counter {} disagrees with class lists {counted}",
                self.live_nodes
            ));
        }
        // Canonical hashcons entries must point into the graph consistently;
        // entries keyed under stale forms are unreachable garbage awaiting
        // compaction and are exempt.
        for (node, &id) in &self.memo {
            let canonical = node.children().iter().all(|&c| self.find(c) == c);
            if !canonical {
                continue;
            }
            let class = self.find(id);
            if !self.classes[&class].nodes.iter().any(|n| n == node) {
                return Err(format!(
                    "hashcons entry {node:?} -> {id} not present in class {class}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymbolLang;

    fn leaf(egraph: &mut EGraph<SymbolLang>, name: &str) -> Id {
        egraph.add(SymbolLang::leaf(name))
    }

    #[test]
    fn hashconsing_deduplicates() {
        let mut eg: EGraph<SymbolLang> = EGraph::new();
        let a1 = leaf(&mut eg, "a");
        let a2 = leaf(&mut eg, "a");
        assert_eq!(a1, a2);
        assert_eq!(eg.num_classes(), 1);
        let f1 = eg.add(SymbolLang::new("f", vec![a1]));
        let f2 = eg.add(SymbolLang::new("f", vec![a2]));
        assert_eq!(f1, f2);
        assert_eq!(eg.num_classes(), 2);
    }

    #[test]
    fn union_merges_classes() {
        let mut eg: EGraph<SymbolLang> = EGraph::new();
        let a = leaf(&mut eg, "a");
        let b = leaf(&mut eg, "b");
        assert!(!eg.same(a, b));
        let (_, changed) = eg.union(a, b);
        assert!(changed);
        eg.rebuild();
        assert!(eg.same(a, b));
        assert_eq!(eg.num_classes(), 1);
        assert_eq!(eg.class(a).len(), 2);
        let (_, changed_again) = eg.union(a, b);
        assert!(!changed_again);
    }

    #[test]
    fn congruence_propagates_upward() {
        // f(a), f(b): after union(a, b) and rebuild, f(a) == f(b).
        let mut eg: EGraph<SymbolLang> = EGraph::new();
        let a = leaf(&mut eg, "a");
        let b = leaf(&mut eg, "b");
        let fa = eg.add(SymbolLang::new("f", vec![a]));
        let fb = eg.add(SymbolLang::new("f", vec![b]));
        assert!(!eg.same(fa, fb));
        eg.union(a, b);
        let extra = eg.rebuild();
        assert!(extra >= 1);
        assert!(eg.same(fa, fb));
        eg.check_invariants().unwrap();
    }

    #[test]
    fn congruence_propagates_transitively() {
        // g(f(a)), g(f(b)): one union at the leaves collapses two levels.
        let mut eg: EGraph<SymbolLang> = EGraph::new();
        let a = leaf(&mut eg, "a");
        let b = leaf(&mut eg, "b");
        let fa = eg.add(SymbolLang::new("f", vec![a]));
        let fb = eg.add(SymbolLang::new("f", vec![b]));
        let gfa = eg.add(SymbolLang::new("g", vec![fa]));
        let gfb = eg.add(SymbolLang::new("g", vec![fb]));
        eg.union(a, b);
        eg.rebuild();
        assert!(eg.same(gfa, gfb));
        eg.check_invariants().unwrap();
    }

    #[test]
    fn add_expr_builds_dag() {
        let mut eg: EGraph<SymbolLang> = EGraph::new();
        let expr: RecExpr<SymbolLang> = "(+ (* a b) (* a b))".parse().unwrap();
        let root = eg.add_expr(&expr);
        // Shared sub-expressions are hash-consed: a, b, (* a b), (+ _ _).
        assert_eq!(eg.num_classes(), 4);
        assert_eq!(eg.find(root), root);
        eg.rebuild();
        eg.check_invariants().unwrap();
    }

    #[test]
    fn lookup_finds_canonical_nodes() {
        let mut eg: EGraph<SymbolLang> = EGraph::new();
        let a = leaf(&mut eg, "a");
        let b = leaf(&mut eg, "b");
        let fa = eg.add(SymbolLang::new("f", vec![a]));
        eg.union(a, b);
        eg.rebuild();
        // Looking up f(b) must find the same class as f(a).
        let found = eg.lookup(&SymbolLang::new("f", vec![b]));
        assert_eq!(found, Some(eg.find(fa)));
        assert_eq!(eg.lookup(&SymbolLang::leaf("zzz")), None);
    }

    #[test]
    fn parent_index_lists_users() {
        let mut eg: EGraph<SymbolLang> = EGraph::new();
        let a = leaf(&mut eg, "a");
        let b = leaf(&mut eg, "b");
        let f = eg.add(SymbolLang::new("f", vec![a, b]));
        eg.rebuild();
        let parents = eg.parent_index();
        let pa = &parents[&eg.find(a)];
        assert_eq!(pa.len(), 1);
        assert_eq!(pa[0].0, eg.find(f));
        assert!(!parents.contains_key(&eg.find(f)));
    }

    #[test]
    fn total_nodes_counts_all_enode_variants() {
        let mut eg: EGraph<SymbolLang> = EGraph::new();
        let a = leaf(&mut eg, "a");
        let b = leaf(&mut eg, "b");
        eg.union(a, b);
        eg.rebuild();
        assert_eq!(eg.num_classes(), 1);
        assert_eq!(eg.total_nodes(), 2);
        assert_eq!(eg.num_unions(), 1);
    }

    #[test]
    fn op_index_prunes_to_matching_classes() {
        let mut eg: EGraph<SymbolLang> = EGraph::new();
        let a = leaf(&mut eg, "a");
        let b = leaf(&mut eg, "b");
        let f = eg.add(SymbolLang::new("f", vec![a, b]));
        let g = eg.add(SymbolLang::new("g", vec![a]));
        eg.rebuild();
        let fs = eg.classes_for_op(SymbolLang::new("f", vec![a, b]).op_key());
        assert_eq!(fs, vec![eg.find(f)]);
        let gs = eg.classes_for_op(SymbolLang::new("g", vec![a]).op_key());
        assert_eq!(gs, vec![eg.find(g)]);
        assert!(eg
            .classes_for_op(SymbolLang::leaf("nosuch").op_key())
            .is_empty());
    }

    #[test]
    fn op_index_canonicalizes_after_unions() {
        let mut eg: EGraph<SymbolLang> = EGraph::new();
        let a = leaf(&mut eg, "a");
        let b = leaf(&mut eg, "b");
        let fa = eg.add(SymbolLang::new("f", vec![a]));
        let fb = eg.add(SymbolLang::new("f", vec![b]));
        eg.union(a, b);
        eg.rebuild();
        // f(a) and f(b) merged by congruence: one canonical class, no dupes.
        let fs = eg.classes_for_op(SymbolLang::new("f", vec![a]).op_key());
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0], eg.find(fa));
        assert_eq!(eg.find(fa), eg.find(fb));
    }

    #[test]
    fn egraph_is_send_and_sync() {
        // The Runner's parallel search shares `&EGraph` across scoped worker
        // threads; `find` is compression-free on `&self`, so the whole graph
        // is `Sync` as long as the language is.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EGraph<SymbolLang>>();
        assert_send_sync::<crate::Rewrite<SymbolLang>>();
    }

    #[test]
    fn parents_survive_merges() {
        let mut eg: EGraph<SymbolLang> = EGraph::new();
        let a = leaf(&mut eg, "a");
        let b = leaf(&mut eg, "b");
        let _fa = eg.add(SymbolLang::new("f", vec![a]));
        let _gb = eg.add(SymbolLang::new("g", vec![b]));
        eg.union(a, b);
        eg.rebuild();
        // The merged leaf class lists both f and g as parents.
        let parents = eg.parent_index();
        let merged = eg.find(a);
        assert_eq!(parents[&merged].len(), 2);
        eg.check_invariants().unwrap();
    }
}
