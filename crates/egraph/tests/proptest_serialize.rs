//! Round-trip property tests of the serialize layer: for random e-graphs,
//! `to_serialized` → JSON → `from_serialized` must preserve the class
//! partition, every class's canonical nodes, and the root equivalences —
//! all checked against an independent reference rebuild that materializes
//! nodes by brute-force fixpoint scanning (the obviously-correct, slow
//! oracle the linear Kahn-style reconstruction replaced). `relayout`, the
//! same replay fed from the live e-graph, must equal the round trip index
//! for index.

// Helper fns here run outside #[test] context, so the clippy.toml
// test relaxation does not reach them.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use egraph::serialize::{
    from_serialized, from_serialized_with_stats, relayout, to_serialized, SerializedEGraph,
    SerializedNode,
};
use egraph::{EGraph, FromOp, FxHashMap, FxHashSet, Id, Language, SymbolLang};
use proptest::prelude::*;
use std::collections::VecDeque;

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
    proptest::collection::vec(op, 5..60)
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
    egraph.rebuild();
    (egraph, ids)
}

/// Reference reconstruction: scan every remaining (class, node) pair over
/// and over, materializing any node whose children are all available, until
/// a full pass makes no progress. Quadratic and obviously correct — the
/// oracle the production Kahn-style scheduler must agree with.
fn reference_rebuild(data: &SerializedEGraph) -> Option<(EGraph<SymbolLang>, FxHashMap<u32, Id>)> {
    let mut egraph: EGraph<SymbolLang> = EGraph::new();
    let mut map: FxHashMap<u32, Id> = FxHashMap::default();
    let mut done: FxHashSet<(u32, usize)> = FxHashSet::default();
    let mut progress = true;
    while progress {
        progress = false;
        for (&cid, class) in &data.classes {
            for (i, node) in class.nodes.iter().enumerate() {
                if done.contains(&(cid, i)) || !node.children.iter().all(|c| map.contains_key(c)) {
                    continue;
                }
                let children: Vec<Id> = node.children.iter().map(|c| map[c]).collect();
                let lang_node = SymbolLang::from_op(&node.op, children).ok()?;
                let id = egraph.add(lang_node);
                match map.get(&cid) {
                    Some(&existing) => {
                        egraph.union(existing, id);
                    }
                    None => {
                        map.insert(cid, id);
                    }
                }
                done.insert((cid, i));
                progress = true;
            }
            egraph.rebuild();
        }
    }
    (done.len() == data.num_nodes()).then_some((egraph, map))
}

/// The equivalence relation induced over a set of serialized class ids by
/// an id map into an e-graph: which pairs land in the same class.
fn partition_pairs(
    egraph: &EGraph<SymbolLang>,
    map: &FxHashMap<u32, Id>,
    cids: &[u32],
) -> Vec<bool> {
    let mut pairs = Vec::with_capacity(cids.len() * cids.len());
    for &a in cids {
        for &b in cids {
            pairs.push(egraph.find(map[&a]) == egraph.find(map[&b]));
        }
    }
    pairs
}

/// The replay `from_serialized` ran before it shared its core with
/// `relayout`, kept as it was: a hash-map id map, one waiter `Vec` per
/// class and a FIFO ready queue over the snapshot's classes in ascending id
/// order, one `add` per node, one `union` per further node of a class, and
/// one `rebuild`.
fn kahn_reference(data: &SerializedEGraph) -> (EGraph<SymbolLang>, Vec<Id>) {
    let mut egraph: EGraph<SymbolLang> = EGraph::new();
    let mut id_map: FxHashMap<u32, Id> = FxHashMap::default();
    let flat: Vec<(u32, &SerializedNode)> = data
        .classes
        .iter()
        .flat_map(|(&cid, class)| class.nodes.iter().map(move |n| (cid, n)))
        .collect();
    let mut missing: Vec<usize> = flat.iter().map(|(_, n)| n.children.len()).collect();
    let mut waiters: FxHashMap<u32, Vec<usize>> = FxHashMap::default();
    let mut ready: VecDeque<usize> = VecDeque::new();
    for (fi, (_, node)) in flat.iter().enumerate() {
        for &child in &node.children {
            waiters.entry(child).or_default().push(fi);
        }
        if node.children.is_empty() {
            ready.push_back(fi);
        }
    }
    while let Some(fi) = ready.pop_front() {
        let (cid, node) = flat[fi];
        let children: Vec<Id> = node.children.iter().map(|c| id_map[c]).collect();
        let new_id = egraph.add(SymbolLang::from_op(&node.op, children).unwrap());
        match id_map.get(&cid).copied() {
            Some(existing) => {
                egraph.union(existing, new_id);
            }
            None => {
                id_map.insert(cid, new_id);
                for w in waiters.remove(&cid).unwrap_or_default() {
                    missing[w] -= 1;
                    if missing[w] == 0 {
                        ready.push_back(w);
                    }
                }
            }
        }
    }
    egraph.rebuild();
    let roots = data.roots.iter().map(|r| egraph.find(id_map[r])).collect();
    (egraph, roots)
}

/// Everything `relayout_equals_the_round_trip` compares: `classes()` in
/// order with ids and node lists, the roots, the counters,
/// `classes_for_op` for every operator key and `parent_index()`.
type Layout = (
    Vec<(Id, Vec<SymbolLang>)>,
    Vec<Id>,
    (usize, usize, usize),
    Vec<Vec<Id>>,
    FxHashMap<Id, Vec<(Id, SymbolLang)>>,
);

fn layout(egraph: &EGraph<SymbolLang>, roots: Vec<Id>, op_keys: &[u64]) -> Layout {
    (
        egraph.classes().map(|c| (c.id, c.nodes.clone())).collect(),
        roots,
        (
            egraph.num_unions(),
            egraph.total_nodes(),
            egraph.num_classes(),
        ),
        op_keys.iter().map(|&k| egraph.classes_for_op(k)).collect(),
        egraph.parent_index(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// `to_serialized` → JSON text → `from_json` is the identity on the
    /// serialized form, and the parsed snapshot passes validation.
    #[test]
    fn json_round_trip_is_identity(ops in workload()) {
        let (egraph, ids) = apply(&ops);
        let roots = vec![ids[0], *ids.last().unwrap()];
        let ser = to_serialized(&egraph, &roots);
        let parsed = SerializedEGraph::from_json(&ser.to_json()).unwrap();
        prop_assert_eq!(&parsed, &ser);
    }

    /// The production reconstruction and the brute-force reference rebuild
    /// induce the same class partition, and both agree with the source
    /// e-graph on every tracked-id equivalence (including the roots).
    #[test]
    fn reconstruction_matches_reference_oracle(ops in workload()) {
        let (egraph, ids) = apply(&ops);
        let roots: Vec<Id> = ids.iter().step_by(7).copied().collect();
        let ser = to_serialized(&egraph, &roots);

        let ((fast, fast_map, fast_roots), stats) =
            from_serialized_with_stats::<SymbolLang>(&ser).unwrap();
        let (slow, slow_map) = reference_rebuild(&ser).expect("oracle rebuild failed");

        // Every serialized node is materialized exactly once (the linearity
        // the Kahn scheduler guarantees).
        prop_assert_eq!(stats.node_attempts, ser.num_nodes());

        // Same number of classes as the source and as the oracle.
        prop_assert_eq!(fast.num_classes(), egraph.num_classes());
        prop_assert_eq!(slow.num_classes(), egraph.num_classes());

        // Identical partition over every serialized class id.
        let cids: Vec<u32> = ser.classes.keys().copied().collect();
        prop_assert_eq!(
            partition_pairs(&fast, &fast_map, &cids),
            partition_pairs(&slow, &slow_map, &cids)
        );

        // Tracked ids: equivalence in the source iff equivalence after the
        // round trip. Serialized class ids are the source's canonical ids,
        // so `find(id).0` indexes both maps.
        for &a in &ids {
            for &b in &ids {
                let source = egraph.find(a) == egraph.find(b);
                let restored =
                    fast.find(fast_map[&egraph.find(a).0]) == fast.find(fast_map[&egraph.find(b).0]);
                prop_assert_eq!(source, restored);
            }
        }

        // Root equivalences survive in order.
        prop_assert_eq!(fast_roots.len(), roots.len());
        for (i, &ra) in roots.iter().enumerate() {
            for (j, &rb) in roots.iter().enumerate() {
                let source = egraph.find(ra) == egraph.find(rb);
                let restored = fast.find(fast_roots[i]) == fast.find(fast_roots[j]);
                prop_assert_eq!(source, restored);
            }
        }
    }

    /// Canonical forms: every class holds the same canonical nodes before
    /// and after the round trip, read through the restore map (the restored
    /// graph lost no node and invented none).
    #[test]
    fn canonical_nodes_survive_round_trip(ops in workload()) {
        let (egraph, ids) = apply(&ops);
        let roots: Vec<Id> = ids.iter().step_by(5).copied().collect();
        let ser = to_serialized(&egraph, &roots);
        let json = ser.to_json();
        let parsed = SerializedEGraph::from_json(&json).unwrap();
        let (restored, map, _roots) = from_serialized::<SymbolLang>(&parsed).unwrap();

        for class in egraph.classes() {
            let before: FxHashSet<SymbolLang> = class
                .nodes
                .iter()
                .map(|n| restored.canonicalize(&n.map_children(|c| map[&egraph.find(c).0])))
                .collect();
            let target = restored.find(map[&class.id.0]);
            let after: FxHashSet<SymbolLang> =
                restored.class(target).nodes.iter().map(|n| restored.canonicalize(n)).collect();
            prop_assert_eq!(before, after, "class {} changed its nodes", class.id.0);
        }
    }

    /// `relayout` makes the e-graph the round trip restores, without the
    /// document: the same classes in the same iteration order with the same
    /// ids and node lists, the same roots and counters, and the same
    /// operator and parent indexes. Both run one replay, so both are also
    /// held to `kahn_reference`, the replay as it stood before they shared
    /// it.
    #[test]
    fn relayout_equals_the_round_trip(ops in workload()) {
        let (egraph, ids) = apply(&ops);
        let roots: Vec<Id> = ids.iter().step_by(3).copied().collect();
        let mut keys: Vec<u64> = egraph
            .classes()
            .flat_map(|c| c.nodes.iter().map(Language::op_key))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let ser = to_serialized(&egraph, &roots);

        let (relaid, relaid_roots) = relayout(&egraph, &roots);
        let (restored, _map, restored_roots) = from_serialized::<SymbolLang>(&ser).unwrap();
        let (reference, reference_roots) = kahn_reference(&ser);
        let relaid = layout(&relaid, relaid_roots, &keys);
        prop_assert_eq!(&relaid, &layout(&restored, restored_roots, &keys));
        prop_assert_eq!(&relaid, &layout(&reference, reference_roots, &keys));
    }
}
