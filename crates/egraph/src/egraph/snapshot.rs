//! The matcher's view of a clean e-graph: one dense, read-only copy per
//! search phase.
//!
//! The live store reaches a class's nodes through the union-find, the
//! id → slot table, the class store and a heap-allocated node list. A
//! [`Snapshot`] lays the same data out by id in three arrays, so a matcher
//! step reads one packed word and a contiguous node range. Building it is
//! one O(ids + nodes) pass; the runner builds one per search phase, shares
//! it between the search workers and drops it before the apply phase.

use super::{EGraph, DEAD};
use crate::{Id, Language};

/// A dense, read-only copy of a clean e-graph, indexed by id.
#[derive(Debug)]
pub(crate) struct Snapshot<L> {
    /// The canonical id of every id.
    canon: Vec<Id>,
    /// Per id, `signature << 32 | offset`: the class's operator signature
    /// and the offset of its first node in `nodes`. A merged-away id has
    /// signature 0 and an empty node range. One more word at the end closes
    /// the last range, so id `i`'s nodes end where id `i + 1`'s begin.
    words: Vec<u64>,
    /// Every class's nodes, classes in id order, each in `EClass::nodes`
    /// order. Their children are canonical.
    nodes: Vec<L>,
}

impl<L> Snapshot<L> {
    /// The canonical id of `id`.
    #[inline]
    pub(crate) fn find(&self, id: Id) -> Id {
        self.canon[id.index()]
    }

    /// The operator signature and the nodes of the class stored under the
    /// canonical id `id`.
    #[inline]
    pub(crate) fn class(&self, id: Id) -> (u32, &[L]) {
        let word = self.words[id.index()];
        let end = self.words[id.index() + 1] as u32 as usize;
        ((word >> 32) as u32, &self.nodes[word as u32 as usize..end])
    }
}

impl<L: Language> EGraph<L> {
    /// Copies the clean e-graph into a [`Snapshot`] in one pass over the
    /// ids, visiting each stored class once.
    pub(crate) fn snapshot(&self) -> Snapshot<L> {
        self.debug_assert_clean("snapshot()");
        let ids = self.slot.len();
        let mut canon = Vec::with_capacity(ids);
        let mut words = Vec::with_capacity(ids + 1);
        // Node offsets are packed into 32 bits.
        assert!(
            u32::try_from(self.live_nodes).is_ok(),
            "a snapshot holds fewer than 2^32 e-nodes"
        );
        let mut nodes = Vec::with_capacity(self.live_nodes);
        for (i, &at) in self.slot.iter().enumerate() {
            canon.push(self.find(Id::from(i)));
            let start = nodes.len() as u64;
            let sig = if at == DEAD {
                0
            } else {
                let class = &self.classes[at as usize];
                debug_assert!(
                    class
                        .nodes
                        .iter()
                        .flat_map(L::children)
                        .all(|&c| self.find(c) == c),
                    "class {i} holds a node with a non-canonical child"
                );
                nodes.extend_from_slice(&class.nodes);
                class.sig
            };
            words.push(u64::from(sig) << 32 | start);
        }
        words.push(nodes.len() as u64);
        Snapshot {
            canon,
            words,
            nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymbolLang;

    /// Random leaves and binary nodes merged in batches and rebuilt; every
    /// round's snapshot is held to the live store for every issued id.
    #[test]
    fn snapshot_agrees_with_the_store_on_random_rebuilt_graphs() {
        for seed in 1..=8u64 {
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut next = |bound: usize| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % bound as u64) as usize
            };
            let mut eg: EGraph<SymbolLang> = EGraph::new();
            let mut ids: Vec<Id> = (0..6)
                .map(|i| eg.add(SymbolLang::leaf(format!("x{i}"))))
                .collect();
            for round in 0..10 {
                for _ in 0..12 {
                    let (a, b) = (ids[next(ids.len())], ids[next(ids.len())]);
                    let op = ["f", "g", "h", "k"][next(4)];
                    ids.push(eg.add(SymbolLang::new(op, vec![a, b])));
                }
                for _ in 0..1 + round % 3 {
                    eg.union(ids[next(ids.len())], ids[next(ids.len())]);
                }
                eg.rebuild();
                let snapshot = eg.snapshot();
                let issued = eg.unionfind.len();
                assert_eq!(snapshot.canon.len(), issued);
                for i in 0..issued {
                    let id = Id::from(i);
                    let canon = snapshot.find(id);
                    assert_eq!(canon, eg.find(id), "seed {seed} round {round} id {i}");
                    let class = eg.get_class(id).expect("every issued id has a class");
                    let (sig, nodes) = snapshot.class(canon);
                    assert_eq!(sig, class.sig, "seed {seed} round {round} id {i}");
                    assert_eq!(nodes, class.nodes, "seed {seed} round {round} id {i}");
                    if canon != id {
                        assert_eq!(snapshot.class(id), (0, &[][..]));
                    }
                }
            }
        }
    }
}
