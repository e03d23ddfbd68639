//! Union-find (disjoint set) over e-class ids with union-by-size and path
//! compression.

use crate::Id;

/// A union-find structure mapping every [`Id`] to its canonical representative.
///
/// [`UnionFind::union`] merges by set size (the smaller set's root is
/// re-parented under the larger set's root; ties keep the first argument's
/// root), and [`UnionFind::find_mut`] compresses paths, so a sequence of `m`
/// operations over `n` ids costs O(m α(n)) — effectively constant per
/// operation.
#[derive(Debug, Clone, Default)]
pub struct UnionFind {
    pub(crate) parents: Vec<Id>,
    /// Set sizes, meaningful only at root indices.
    pub(crate) sizes: Vec<u32>,
}

impl UnionFind {
    /// Creates an empty union-find.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fresh set containing only the returned id.
    pub fn make_set(&mut self) -> Id {
        let id = Id::from(self.parents.len());
        self.parents.push(id);
        self.sizes.push(1);
        id
    }

    /// Number of ids ever created (not the number of distinct sets).
    #[inline]
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// Returns `true` if no ids have been created.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parents.is_empty()
    }

    /// Finds the canonical representative without mutating (no compression).
    #[inline]
    pub fn find(&self, mut id: Id) -> Id {
        while self.parents[id.index()] != id {
            id = self.parents[id.index()];
        }
        id
    }

    /// Finds the canonical representative, compressing paths along the way.
    pub fn find_mut(&mut self, mut id: Id) -> Id {
        let mut root = id;
        while self.parents[root.index()] != root {
            root = self.parents[root.index()];
        }
        // Path compression.
        while self.parents[id.index()] != root {
            let next = self.parents[id.index()];
            self.parents[id.index()] = root;
            id = next;
        }
        root
    }

    /// Number of ids in the set containing `id`.
    pub fn set_size(&self, id: Id) -> usize {
        self.sizes[self.find(id).index()] as usize
    }

    /// Merges the sets of `a` and `b` by size: the smaller set's root is
    /// re-parented under the larger set's root (ties keep `a`'s root).
    /// Returns the surviving root.
    pub fn union(&mut self, a: Id, b: Id) -> Id {
        let ra = self.find_mut(a);
        let rb = self.find_mut(b);
        if ra == rb {
            return ra;
        }
        let (winner, loser) = if self.sizes[ra.index()] >= self.sizes[rb.index()] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parents[loser.index()] = winner;
        self.sizes[winner.index()] += self.sizes[loser.index()];
        winner
    }

    /// Returns `true` if two ids are currently in the same set.
    #[inline]
    pub fn same(&self, a: Id, b: Id) -> bool {
        self.find(a) == self.find(b)
    }

    /// The raw parent slot of `id` (one step, no root chase, no
    /// compression). The e-graph's audit walks parent chains with a step
    /// budget through this, so it can diagnose a corrupted structure on
    /// which [`UnionFind::find`] would not terminate.
    #[inline]
    pub(crate) fn parent(&self, id: Id) -> Id {
        self.parents[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_sets_are_distinct() {
        let mut uf = UnionFind::new();
        let a = uf.make_set();
        let b = uf.make_set();
        let c = uf.make_set();
        assert_ne!(uf.find(a), uf.find(b));
        assert_ne!(uf.find(b), uf.find(c));
        assert_eq!(uf.len(), 3);
    }

    #[test]
    fn union_merges_and_keeps_first_root() {
        let mut uf = UnionFind::new();
        let a = uf.make_set();
        let b = uf.make_set();
        let root = uf.union(a, b);
        assert_eq!(root, a);
        assert!(uf.same(a, b));
        assert_eq!(uf.find(b), a);
    }

    #[test]
    fn union_by_size_keeps_larger_root() {
        let mut uf = UnionFind::new();
        let a = uf.make_set();
        let b = uf.make_set();
        let c = uf.make_set();
        // {a, b} has size 2; unioning with the singleton {c} keeps a's root
        // even when c is the first argument.
        uf.union(a, b);
        let root = uf.union(c, a);
        assert_eq!(root, a);
        assert_eq!(uf.set_size(c), 3);
    }

    #[test]
    fn transitive_unions() {
        let mut uf = UnionFind::new();
        let ids: Vec<Id> = (0..10).map(|_| uf.make_set()).collect();
        for pair in ids.chunks(2) {
            uf.union(pair[0], pair[1]);
        }
        uf.union(ids[0], ids[2]);
        uf.union(ids[2], ids[4]);
        assert!(uf.same(ids[1], ids[5]));
        assert!(!uf.same(ids[0], ids[6]));
    }

    #[test]
    fn path_compression_preserves_roots() {
        let mut uf = UnionFind::new();
        let ids: Vec<Id> = (0..100).map(|_| uf.make_set()).collect();
        for w in ids.windows(2) {
            uf.union(w[0], w[1]);
        }
        let root = uf.find(ids[0]);
        for &id in &ids {
            assert_eq!(uf.find_mut(id), root);
        }
    }

    #[test]
    fn sizes_track_set_cardinality() {
        let mut uf = UnionFind::new();
        let ids: Vec<Id> = (0..8).map(|_| uf.make_set()).collect();
        assert_eq!(uf.set_size(ids[0]), 1);
        uf.union(ids[0], ids[1]);
        uf.union(ids[2], ids[3]);
        uf.union(ids[0], ids[2]);
        assert_eq!(uf.set_size(ids[3]), 4);
        assert_eq!(uf.set_size(ids[7]), 1);
    }
}
