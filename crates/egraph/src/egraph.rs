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
//!   classes, so the loop runs to a fixpoint. A dirty class whose parent
//!   entries are all canonical already is left as it is: re-keying it could
//!   union nothing. Merging a rule's fresh right-hand side into the matched
//!   class dirties exactly such a class.
//! * Only classes whose nodes could have gone stale (parents of dirty
//!   classes and union winners) have their node lists re-canonicalized and
//!   deduplicated at the end of a rebuild.
//!
//! The cost of a `rebuild` is therefore proportional to the **stale parent
//! entries** — those of classes touched by unions that name a merged-away
//! class — not to the total graph size. A rebuild with an empty worklist
//! is O(1). The differential property tests hold it to a congruence closure
//! they compute from scratch over their own operation log.
//!
//! # The class store
//!
//! Classes live densely in a `Vec`, found through an id → slot table;
//! `union` moves the last class into the loser's slot. Iteration does not
//! follow the slots but `order`, a hash set of the canonical ids that
//! reproduces the iteration order of the hash map this store replaced (see
//! the field's docs for why that order must not move).
//!
//! The e-graph also maintains an **operator discriminator index** mapping
//! [`Language::op_key`] values to the classes containing a node with that
//! operator; [`crate::Pattern`] uses it so a rule only visits classes whose
//! nodes can match its root symbol. Below the root the matcher consults
//! each class's **operator signature**, a 32-bit set of the operators its
//! nodes have had, and skips a class that cannot hold the one it needs.
//!
//! # The matcher's snapshot
//!
//! The matcher does not read this store. At the start of each search phase
//! the [`crate::Runner`] copies the clean graph once into a dense,
//! id-indexed `Snapshot` (the `snapshot` module has its layout). All search
//! workers share it, and it is dropped before the apply phase, so it costs
//! one O(ids + nodes) copy per iteration and never goes stale.

use crate::{Id, Language, RecExpr, UnionFind};
use fxhash::{FxHashMap, FxHashSet};

mod audit;
mod snapshot;

#[cfg(test)]
pub(crate) use self::audit::assert_audit_clean;
pub use self::audit::{audit_egraph, egraph_catalog};
pub(crate) use self::snapshot::Snapshot;

/// The `slot` entry of an id whose class has been merged away.
const DEAD: u32 = u32::MAX;

/// The signature bit of an operator key: a class's signature is the OR of
/// the bits of its nodes' [`Language::op_key`]s. Two keys may share a bit,
/// so a set bit only says "maybe"; a clear bit says "no node with this key".
#[inline]
pub(crate) fn op_signature(key: u64) -> u32 {
    1 << (key % 32)
}

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
    /// Operator signature: bit `op_key % 32` is set for the operator of
    /// every node the class has held (see [`op_signature`]). A class whose
    /// signature lacks an operator's bit holds no node with that operator,
    /// so the matcher skips it. 32 bits fill the padding beside `id`, so the
    /// signature adds no memory to a class.
    pub(crate) sig: u32,
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
    /// The live classes, packed densely in no meaningful order: `union`
    /// moves the last class into the loser's place. Reach a class through
    /// `slot`; iterate in `order`.
    classes: Vec<EClass<L>>,
    /// Id → index into `classes`; [`DEAD`] for every id that is not
    /// canonical (merged away).
    slot: Vec<u32>,
    /// The canonical ids, kept only for their iteration order. The set sees
    /// exactly the insert / remove sequence the id → class hash map this
    /// store replaced saw (insert in `add`, remove of the loser in `union`),
    /// and a hash table's layout depends only on its keys, its hasher and
    /// that sequence, so [`EGraph::classes`] yields classes in the order it
    /// always did. It exists because `emorphic::extract::classes_in_seed_order`
    /// numbers classes in that order, and every extraction result depends
    /// on the numbering. Pinning that one numbering to id order deletes it.
    order: FxHashSet<Id>,
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
            classes: Vec::new(),
            slot: Vec::new(),
            order: FxHashSet::default(),
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
    /// A node with a child id this graph never issued is not represented.
    pub fn lookup(&self, node: &L) -> Option<Id> {
        if node.children().iter().any(|c| c.index() >= self.slot.len()) {
            return None;
        }
        let node = self.canonicalize(node);
        self.memo.get(&node).map(|&id| self.find(id))
    }

    /// The slot of the class stored under exactly `id`, if one is.
    #[inline]
    fn slot_of(&self, id: Id) -> Option<usize> {
        match self.slot.get(id.index()) {
            Some(&at) if at != DEAD => Some(at as usize),
            _ => None,
        }
    }

    /// The class stored under the canonical id `id`.
    #[inline]
    fn class_mut(&mut self, id: Id) -> &mut EClass<L> {
        let at = self.slot[id.index()] as usize;
        &mut self.classes[at]
    }

    /// The classes in `order`, with their ids.
    fn ordered(&self) -> impl Iterator<Item = (Id, &EClass<L>)> {
        self.order
            .iter()
            .map(move |&id| (id, &self.classes[self.slot[id.index()] as usize]))
    }

    /// Adds an e-node (hash-consed); returns the id of its e-class.
    pub fn add(&mut self, node: L) -> Id {
        let node = self.canonicalize(&node);
        if let Some(&id) = self.memo.get(&node) {
            return self.find(id);
        }
        let id = self.unionfind.make_set();
        for &child in node.children() {
            self.class_mut(child).parents.push((node.clone(), id));
        }
        let key = node.op_key();
        self.classes_by_op.entry(key).or_default().push(id);
        self.slot.push(self.classes.len() as u32);
        self.classes.push(EClass {
            id,
            nodes: vec![node.clone()],
            parents: Vec::new(),
            sig: op_signature(key),
        });
        self.order.insert(id);
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
        let at = std::mem::replace(&mut self.slot[loser.index()], DEAD) as usize;
        let loser_class = self.classes.swap_remove(at);
        if let Some(moved) = self.classes.get(at) {
            self.slot[moved.id.index()] = at as u32;
        }
        self.order.remove(&loser);
        let winner = self.class_mut(root);
        winner.sig |= loser_class.sig;
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
    ///
    /// A class whose every parent entry is already canonical (parent class
    /// and children) is left untouched: re-keying it would remove and
    /// re-insert each entry under the same key, and no two entries of such a
    /// list share a node with distinct classes (the repair that made them
    /// canonical unioned those, leaving one of the two classes stale), so
    /// the repair could union nothing. This is what a union with a fresh,
    /// parentless class — every rule's right-hand side — dirties.
    fn repair(&mut self, class: Id) -> usize {
        let class = self.unionfind.find_mut(class);
        let Some(at) = self.slot_of(class) else {
            return 0;
        };
        let uf = &self.unionfind;
        let canonical = |id: Id| uf.parent(id) == id;
        let stale = self.classes[at].parents.iter().any(|(node, pclass)| {
            !canonical(*pclass) || !node.children().iter().all(|&c| canonical(c))
        });
        if !stale {
            return 0;
        }
        let mut parents = std::mem::take(&mut self.classes[at].parents);
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
        let owner_class = self.class_mut(owner);
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
            let class = &mut self.classes[self.slot[id.index()] as usize];
            let before = class.nodes.len();
            for node in &mut class.nodes {
                node.update_children(|c| uf.find(c));
            }
            class.nodes.sort_unstable();
            class.nodes.dedup();
            self.live_nodes -= before - class.nodes.len();
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
        for &id in &self.order {
            let class = &self.classes[self.slot[id.index()] as usize];
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
        self.order.len()
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
        &self.classes[self.slot[id.index()] as usize]
    }

    /// Returns the e-class with the given id, if it exists: `None` for an id
    /// this graph never issued. Like [`EGraph::class`], debug-asserts a
    /// clean graph.
    pub fn get_class(&self, id: Id) -> Option<&EClass<L>> {
        self.debug_assert_clean("get_class()");
        if id.index() >= self.slot.len() {
            return None;
        }
        self.slot_of(self.find(id)).map(|at| &self.classes[at])
    }

    /// Iterates over all e-classes. Debug-asserts a clean graph.
    pub fn classes(&self) -> impl Iterator<Item = &EClass<L>> {
        self.debug_assert_clean("classes()");
        self.ordered().map(|(_, class)| class)
    }

    /// Iterates over all canonical class ids. Debug-asserts a clean graph.
    pub fn class_ids(&self) -> impl Iterator<Item = Id> + '_ {
        self.debug_assert_clean("class_ids()");
        self.order.iter().copied()
    }

    /// Canonical class ids in ascending order. Consumers whose output must
    /// not depend on hash-map iteration order (e.g. the choice-network
    /// exporter, which assigns circuit node ids per class) should enumerate
    /// classes through this instead of [`EGraph::classes`]. Debug-asserts a
    /// clean graph.
    pub fn class_ids_sorted(&self) -> Vec<Id> {
        self.debug_assert_clean("class_ids_sorted()");
        let mut ids: Vec<Id> = self.order.iter().copied().collect();
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
            // One bit per id marks the canonical ids already returned.
            let mut seen = vec![0u64; self.slot.len().div_ceil(64)];
            for &id in ids {
                let canon = self.find(id);
                let (word, bit) = (canon.index() / 64, 1 << (canon.index() % 64));
                if seen[word] & bit == 0 {
                    seen[word] |= bit;
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
        for (_, class) in self.ordered() {
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
        assert_audit_clean(&eg);
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
        assert_audit_clean(&eg);
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
        assert_audit_clean(&eg);
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
        // The Runner's parallel search shares one `&Snapshot` across scoped
        // worker threads; the job server moves e-graphs between threads, and
        // `find` is compression-free on `&self`, so the graph is `Sync` too.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EGraph<SymbolLang>>();
        assert_send_sync::<Snapshot<SymbolLang>>();
        assert_send_sync::<crate::Rewrite<SymbolLang>>();
    }

    #[test]
    fn ids_the_graph_never_issued_have_no_class() {
        let mut eg: EGraph<SymbolLang> = EGraph::new();
        let a = leaf(&mut eg, "a");
        eg.rebuild();
        let foreign = Id(1000);
        assert!(eg.get_class(foreign).is_none());
        assert!(eg.slot_of(foreign).is_none());
        assert_eq!(eg.lookup(&SymbolLang::new("f", vec![a, foreign])), None);
        assert_eq!(eg.get_class(a).map(|c| c.id), Some(a));
    }

    #[test]
    fn store_invariants_hold_through_unions_and_rebuilds() {
        // Leaves and binary nodes over a fixed pseudo-random stream, merged
        // in batches, so `union` removes classes from every position of the
        // dense store and repair meets both stale and canonical parent lists.
        let mut eg: EGraph<SymbolLang> = EGraph::new();
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let mut ids: Vec<Id> = (0..8).map(|i| leaf(&mut eg, &format!("x{i}"))).collect();
        for round in 0..12 {
            for _ in 0..10 {
                let (a, b) = (ids[next(ids.len())], ids[next(ids.len())]);
                let op = ["f", "g", "h"][next(3)];
                ids.push(eg.add(SymbolLang::new(op, vec![a, b])));
            }
            for _ in 0..1 + round % 4 {
                let (a, b) = (ids[next(ids.len())], ids[next(ids.len())]);
                eg.union(a, b);
            }
            eg.rebuild();
            assert_audit_clean(&eg);
        }
        assert!(eg.num_classes() < ids.len());
    }

    #[test]
    fn a_union_with_a_parentless_class_repairs_nothing() {
        // A rule's right-hand side: a fresh class with no parents merged
        // into one whose parent entries are all canonical.
        let mut eg: EGraph<SymbolLang> = EGraph::new();
        let a = leaf(&mut eg, "a");
        let fa = eg.add(SymbolLang::new("f", vec![a]));
        eg.rebuild();
        let fresh = leaf(&mut eg, "b");
        eg.union(a, fresh);
        assert_eq!(eg.rebuild(), 0);
        assert_eq!(eg.lookup(&SymbolLang::new("f", vec![fresh])), Some(fa));
        assert_audit_clean(&eg);
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
        assert_audit_clean(&eg);
    }
}
