//! K-feasible priority-cut enumeration with per-cut truth tables.
//!
//! This reproduces the cut computation behind ABC's `if -K <k> -C <c>`
//! mapper: every AND node stores at most `C` non-trivial cuts of at most `K`
//! leaves, merged bottom-up from its fanins, plus its trivial cut.
//!
//! # The kernel contract
//!
//! One bottom-up pass in node order. Everything below is pinned — cut for
//! cut, in order, truth tables included — by `tests/cuts_golden.rs` and by
//! the reference enumerator in `tests/proptest_cuts.rs` (the readable
//! statement of the same algorithm, one heap `Vec` per cut).
//!
//! * **Candidates.** The cuts of an AND node are the unions `c0 ∪ c1` over
//!   the stored cuts of its two fanins, `c0`-major / `c1`-minor, of at most
//!   `K` leaves. Two pairs with the same union are one candidate and the
//!   *first* pair wins: both derive the node's function on every leaf
//!   assignment the network can produce, but they may differ on the
//!   unreachable ones, so "first" chooses the stored table.
//! * **Ranking.** Candidates are sorted by (arrival estimate, size, area
//!   estimate by `f64::total_cmp`, leaves lexicographically) — a total order
//!   over distinct leaf sets, so the sort algorithm is unobservable. The
//!   arrival estimate is one level above the deepest leaf, the area estimate
//!   `1.0 +` the leaves' estimates summed in leaf order.
//! * **Dominance.** In rank order a candidate is dropped iff an already kept
//!   cut has a subset of its leaves, an arrival no later and an area no
//!   larger.
//! * **Cap and anchor.** The survivors are truncated to `C`; if none of the
//!   first `C` lies inside the anchor (the node's two fanin nodes), the
//!   best-ranked survivor that does replaces the last kept cut, so the cell
//!   mapper always sees a trivially matchable cut. The node's estimates
//!   become the minima over the kept cuts.
//! * **Layout of a cut set.** Kept cuts in rank order (a rescued anchor
//!   last), then the node's trivial cut. Inputs have only the trivial cut,
//!   the constant one cut with no leaves and table 0.
//! * **Choice classes.** Right before a representative's first fanout reads
//!   its cuts (and, for classes no AND consumes, in a trailing pass in node
//!   order) the class is finalized: its members' stored cuts are pooled in
//!   member order, skipping every member's own trivial cut, complemented
//!   where member and representative differ in phase, de-duplicated by leaf
//!   set (first wins again), and ranked, pruned and capped exactly like an
//!   AND node's candidates; the representative's trivial cut goes last.
//!
//! # How it stays cheap
//!
//! Nothing is allocated per cut. A [`Cut`] is `Copy` with its leaves inline;
//! a [`CutSet`] is one arena of cut records plus a `(start, len)` range per
//! node. The record follows `cut_size`: up to four leaves it is 20 bytes
//! (four `u32` leaf slots, a `u16` table, the length), which covers the cell
//! mapper and `rewrite`; at five or six leaves it is the 40-byte [`Cut`]
//! itself (six slots, a `u64` table). The kernel is generic over the record,
//! so it reads fanin sets in place either way, and [`CutSet::cuts`] hands out
//! [`Cut`] values rebuilt from them. On the windowed flow's stitched choice
//! network this arena is what the process peaks on, so a unit test pins the
//! record sizes. Finalizing a class appends the pooled set and re-points the
//! representative's range (the superseded range stays in the arena, dead,
//! and is not counted). Candidates live in per-enumeration scratch reused
//! across nodes.
//!
//! Truth tables are lazy: of the up to `(C + 1)²` pairs of a node only the
//! `≤ C` survivors of the cap are ever stored, so a candidate carries just
//! the indices of the pair that first produced it and the survivors' tables
//! are computed afterwards, by bit-parallel expansion of the two parent
//! tables onto the merged leaves.
//!
//! A 64-bit leaf signature (bit `id mod 64` per leaf) rejects a pair whose
//! union must exceed `K` before the exact sorted merge runs. It is a sound
//! pre-filter only — colliding ids can hide an overflow, never invent one —
//! and the exact merge decides every pair it lets through.
//!
//! The parent-pair indices are `u16` and the arena offsets `u32`; a
//! `cut_limit` or a network too large for them is refused up front
//! ([`MapError::CutSetTooLarge`]), never wrapped.

use crate::truth::{full_mask, VAR_MASK};
use crate::MapError;
use aig::{Aig, AigNode, Lit, NodeId};
use choices::ChoiceAig;

/// The most leaves a cut can carry: truth tables are stored in a `u64`.
/// Every per-cut stack buffer of the crate — a [`Cut`]'s inline leaves, the
/// covering core's arrival scratch, [`crate::timing`]'s pin pairing — has
/// this size. (A [`CutSet`] of at most four-leaf cuts stores them in a
/// narrower record, but hands them out as [`Cut`]s.)
pub const MAX_CUT_LEAVES: usize = 6;

/// The most leaves of the narrow record: its table fits a `u16`.
const NARROW_LEAVES: usize = 4;

/// The largest `cut_limit` the kernel accepts: a full cut set (the limit
/// plus the trivial cut) must be indexable by the `u16` parent-pair indices.
const MAX_CUT_LIMIT: usize = u16::MAX as usize - 1;

/// A cut: a set of leaves that separates a node from the primary inputs,
/// together with the node's function over those leaves.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Cut {
    /// Leaf nodes sorted by id; the slots from `len` on hold
    /// [`NodeId::CONST`], so the derived `Eq` compares leaf sets exactly.
    leaves: [NodeId; MAX_CUT_LEAVES],
    len: u8,
    /// Truth table of the root in terms of the leaves (low `2^n` bits).
    /// Variable `i` is `leaves()[i]`.
    pub truth: u64,
}

impl Cut {
    /// The cut with no leaves and an all-zero table (the constant node's).
    const EMPTY: Cut = Cut {
        leaves: [NodeId::CONST; MAX_CUT_LEAVES],
        len: 0,
        truth: 0,
    };

    /// Creates the trivial cut of a node (the node itself as single leaf).
    pub fn trivial(node: NodeId) -> Self {
        let mut cut = Cut::EMPTY;
        cut.leaves[0] = node;
        cut.len = 1;
        cut.truth = VAR_MASK[0] & full_mask(1);
        cut
    }

    /// The leaf nodes, sorted by id.
    #[inline]
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves[..usize::from(self.len)]
    }

    /// Number of leaves.
    #[inline]
    pub fn size(&self) -> usize {
        usize::from(self.len)
    }

    /// Returns `true` if `self`'s leaves are a subset of `other`'s leaves.
    pub fn dominates(&self, other: &Cut) -> bool {
        is_subset(self.leaves(), other.leaves())
    }

    /// `true` if both cuts have the same leaves (whatever their tables).
    #[inline]
    fn same_leaves(&self, other: &Cut) -> bool {
        self.len == other.len && self.leaves == other.leaves
    }
}

impl std::fmt::Debug for Cut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cut")
            .field("leaves", &self.leaves())
            .field("truth", &self.truth)
            .finish()
    }
}

/// How the arena stores a cut: the kernel is generic over it, so it reads
/// stored cuts in place.
trait Record: Copy {
    fn pack(cut: &Cut) -> Self;
    fn unpack(&self) -> Cut;
    fn leaves(&self) -> &[NodeId];
    fn truth(&self) -> u64;
    /// The arena of a finished enumeration.
    fn into_arena(records: Vec<Self>) -> Arena;
}

/// Cuts of up to six leaves are stored as they are.
impl Record for Cut {
    fn pack(cut: &Cut) -> Self {
        *cut
    }

    fn unpack(&self) -> Cut {
        *self
    }

    fn leaves(&self) -> &[NodeId] {
        Cut::leaves(self)
    }

    fn truth(&self) -> u64 {
        self.truth
    }

    fn into_arena(records: Vec<Self>) -> Arena {
        Arena::Wide(records)
    }
}

/// How a [`CutSet`] of at most [`NARROW_LEAVES`]-leaf cuts stores a cut: 20
/// bytes where a [`Cut`] takes 40.
#[derive(Debug, Clone, Copy)]
struct NarrowCut {
    /// `Cut::leaves` without its last two slots.
    leaves: [NodeId; NARROW_LEAVES],
    /// `Cut::truth`, whose bits from `2^len` on are zero.
    truth: u16,
    len: u8,
}

impl Record for NarrowCut {
    fn pack(cut: &Cut) -> Self {
        assert!(
            cut.size() <= NARROW_LEAVES && cut.truth >> 16 == 0,
            "a narrow record holds at most four leaves and a 16-bit table"
        );
        let mut leaves = [NodeId::CONST; NARROW_LEAVES];
        leaves.copy_from_slice(&cut.leaves[..NARROW_LEAVES]);
        NarrowCut {
            leaves,
            truth: cut.truth as u16,
            len: cut.len,
        }
    }

    fn unpack(&self) -> Cut {
        let mut cut = Cut::EMPTY;
        cut.leaves[..NARROW_LEAVES].copy_from_slice(&self.leaves);
        cut.len = self.len;
        cut.truth = u64::from(self.truth);
        cut
    }

    fn leaves(&self) -> &[NodeId] {
        &self.leaves[..usize::from(self.len)]
    }

    fn truth(&self) -> u64 {
        u64::from(self.truth)
    }

    fn into_arena(records: Vec<Self>) -> Arena {
        Arena::Narrow(records)
    }
}

fn is_subset(leaves: &[NodeId], of: &[NodeId]) -> bool {
    leaves.iter().all(|l| of.contains(l))
}

/// Options for cut enumeration.
#[derive(Debug, Clone, Copy)]
pub struct CutsOptions {
    /// Maximum number of leaves per cut (K), at most 6.
    pub cut_size: usize,
    /// Maximum number of stored cuts per node (C), excluding the trivial cut.
    pub cut_limit: usize,
}

impl Default for CutsOptions {
    fn default() -> Self {
        CutsOptions {
            cut_size: 6,
            cut_limit: 8,
        }
    }
}

/// Where a node's cuts live in the arena.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }
}

/// Every cut set ever stored, back to back, in the record `cut_size` needs.
#[derive(Debug, Clone)]
enum Arena {
    /// `cut_size <= 4`.
    Narrow(Vec<NarrowCut>),
    /// `cut_size` 5 or 6.
    Wide(Vec<Cut>),
}

/// Cut sets for every node of an AIG.
#[derive(Debug, Clone)]
pub struct CutSet {
    arena: Arena,
    /// The live range of each node.
    spans: Vec<Span>,
}

impl CutSet {
    /// Returns the cuts of a node (the last one is always the trivial cut,
    /// except for primary inputs and the constant which only have it).
    pub fn cuts(&self, node: NodeId) -> Cuts<'_> {
        let range = self.spans[node.index()].range();
        match &self.arena {
            Arena::Narrow(arena) => Cuts {
                narrow: &arena[range],
                wide: &[],
            },
            Arena::Wide(arena) => Cuts {
                narrow: &[],
                wide: &arena[range],
            },
        }
    }

    /// Total number of stored cuts.
    pub fn total_cuts(&self) -> usize {
        self.spans.iter().map(|span| span.len as usize).sum()
    }

    /// Length of the arena behind [`CutSet::cuts`], dead sets included: the
    /// size of an array aligned with it.
    pub(crate) fn arena_len(&self) -> usize {
        match &self.arena {
            Arena::Narrow(arena) => arena.len(),
            Arena::Wide(arena) => arena.len(),
        }
    }

    /// Arena position of `cuts(node)[0]`: `cuts(node)[i]` sits at
    /// `arena_start(node) + i` of an array aligned with the arena.
    pub(crate) fn arena_start(&self, node: NodeId) -> usize {
        self.spans[node.index()].start as usize
    }

    /// Cut `index` of `node`.
    pub(crate) fn cut(&self, node: NodeId, index: usize) -> Cut {
        let at = self.arena_start(node) + index;
        match &self.arena {
            Arena::Narrow(arena) => arena[at].unpack(),
            Arena::Wide(arena) => arena[at],
        }
    }

    /// The leaves of cut `index` of `node`, read in place.
    pub(crate) fn leaves(&self, node: NodeId, index: usize) -> &[NodeId] {
        let at = self.arena_start(node) + index;
        match &self.arena {
            Arena::Narrow(arena) => arena[at].leaves(),
            Arena::Wide(arena) => arena[at].leaves(),
        }
    }

    /// The leaves of every cut of `node` in order, read in place.
    pub(crate) fn leaf_sets(&self, node: NodeId) -> impl Iterator<Item = &[NodeId]> {
        let Cuts { narrow, wide } = self.cuts(node);
        let narrow = narrow.iter().map(Record::leaves);
        narrow.chain(wide.iter().map(Cut::leaves))
    }

    /// Bytes the arena spends on one stored cut.
    #[cfg(test)]
    pub(crate) fn stored_bytes_per_cut(&self) -> usize {
        match &self.arena {
            Arena::Narrow(_) => std::mem::size_of::<NarrowCut>(),
            Arena::Wide(_) => std::mem::size_of::<Cut>(),
        }
    }
}

/// The cuts of one node, as [`CutSet::cuts`] reads them out of the arena.
/// One of the two slices is empty: which one is the arena's record.
#[derive(Clone, Copy)]
pub struct Cuts<'a> {
    narrow: &'a [NarrowCut],
    wide: &'a [Cut],
}

impl<'a> Cuts<'a> {
    /// Number of cuts.
    pub fn len(&self) -> usize {
        self.narrow.len() + self.wide.len()
    }

    /// `true` if the node has no cut (never, for a node of the set).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cuts in order.
    pub fn iter(&self) -> CutIter<'a> {
        CutIter {
            narrow: self.narrow.iter(),
            wide: self.wide.iter(),
        }
    }
}

impl std::fmt::Debug for Cuts<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for Cuts<'a> {
    type Item = Cut;
    type IntoIter = CutIter<'a>;

    fn into_iter(self) -> CutIter<'a> {
        self.iter()
    }
}

/// Iterator over the [`Cut`]s of a [`Cuts`] view.
#[derive(Clone)]
pub struct CutIter<'a> {
    narrow: std::slice::Iter<'a, NarrowCut>,
    wide: std::slice::Iter<'a, Cut>,
}

impl Iterator for CutIter<'_> {
    type Item = Cut;

    fn next(&mut self) -> Option<Cut> {
        match self.narrow.next() {
            Some(record) => Some(record.unpack()),
            None => self.wide.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.narrow.len() + self.wide.len();
        (left, Some(left))
    }
}

impl ExactSizeIterator for CutIter<'_> {}

/// Refuses what the kernel's narrowed indices cannot hold: a cut set longer
/// than `u16` parent-pair indices reach, or more cuts than `u32` arena
/// offsets — every node stores one set, every class finalization appends
/// another, and a set is at most `cut_limit` cuts (one, the rescued anchor,
/// at limit 0) plus the trivial cut.
fn check_capacity(nodes: usize, classes: usize, options: &CutsOptions) -> Result<(), MapError> {
    let fits = options.cut_limit <= MAX_CUT_LIMIT
        && (nodes + classes)
            .checked_mul(options.cut_limit.max(1) + 1)
            .is_some_and(|cuts| u32::try_from(cuts).is_ok());
    if fits {
        Ok(())
    } else {
        Err(MapError::CutSetTooLarge {
            nodes,
            cut_limit: options.cut_limit,
        })
    }
}

/// One bit per leaf, `id mod 64`: `popcount(sig(a) | sig(b))` never exceeds
/// the size of `a ∪ b`, so a pair whose popcount is over `K` cannot merge.
fn signature(leaves: &[NodeId]) -> u64 {
    leaves.iter().fold(0, |sig, l| sig | 1u64 << (l.0 & 63))
}

/// The sorted union of two sorted leaf lists as a cut without a table, or
/// `None` if it has more than `max` leaves.
fn merge_leaves(a: &[NodeId], b: &[NodeId], max: usize) -> Option<Cut> {
    let mut cut = Cut::EMPTY;
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() || j < b.len() {
        if n == max {
            return None;
        }
        cut.leaves[n] = if j == b.len() || (i < a.len() && a[i] <= b[j]) {
            if j < b.len() && a[i] == b[j] {
                j += 1;
            }
            i += 1;
            a[i - 1]
        } else {
            j += 1;
            b[j - 1]
        };
        n += 1;
    }
    // `n <= max <= MAX_CUT_LEAVES`.
    cut.len = n as u8;
    Some(cut)
}

/// Exchanges variables `var` and `var + 1` of a six-variable truth table.
#[inline]
fn swap_adjacent(tt: u64, var: usize) -> u64 {
    let (lo, hi) = (VAR_MASK[var], VAR_MASK[var + 1]);
    let shift = 1 << var;
    (tt & !(lo ^ hi)) | ((tt & lo & !hi) << shift) | ((tt & !lo & hi) >> shift)
}

/// Re-expresses `truth`, a table over the sorted leaves `from`, over the
/// sorted superset `to`: bit-parallel, no minterm loop. The table is first
/// replicated to all six variables (it then ignores every variable from
/// `from.len()` up); then each variable, last first, is moved up to its
/// position in `to` by adjacent swaps — everything it passes is a variable
/// the table ignores, because the later variables have already moved beyond
/// its target. Bits above `2^to.len()` are left replicated; callers mask.
fn expand_truth(truth: u64, from: &[NodeId], to: &[NodeId]) -> u64 {
    let mut tt = truth;
    for var in from.len()..MAX_CUT_LEAVES {
        tt |= tt << (1 << var);
    }
    let mut target = to.len();
    for (var, leaf) in from.iter().enumerate().rev() {
        target -= 1;
        while to[target] != *leaf {
            target -= 1;
        }
        for v in var..target {
            tt = swap_adjacent(tt, v);
        }
    }
    tt
}

/// The table of an AND node over `leaves`, the union of one cut of each
/// fanin.
fn and_truth<R: Record>(c0: &R, c1: &R, fanin0: Lit, fanin1: Lit, leaves: &[NodeId]) -> u64 {
    let mut t0 = expand_truth(c0.truth(), c0.leaves(), leaves);
    let mut t1 = expand_truth(c1.truth(), c1.leaves(), leaves);
    if fanin0.is_complemented() {
        t0 = !t0;
    }
    if fanin1.is_complemented() {
        t1 = !t1;
    }
    t0 & t1 & full_mask(leaves.len())
}

/// Library-independent per-node estimates driving the 3-dimensional
/// dominance pruning: `arr` is the unit-delay depth of the node's best cut
/// (LUT levels), `area` the optimistic cut-count of its cheapest cover.
struct Estimates {
    arr: Vec<u32>,
    area: Vec<f64>,
}

impl Estimates {
    /// Unit-delay arrival estimate of a cut: one level above its deepest leaf.
    fn cut_arr(&self, leaves: &[NodeId]) -> u32 {
        1 + leaves
            .iter()
            .map(|l| self.arr[l.index()])
            .max()
            .unwrap_or(0)
    }

    /// Optimistic area estimate of a cut: itself plus its leaves' best areas.
    fn cut_area(&self, leaves: &[NodeId]) -> f64 {
        1.0 + leaves.iter().map(|l| self.area[l.index()]).sum::<f64>()
    }
}

/// A candidate cut of the node being processed.
#[derive(Clone, Copy)]
struct Candidate {
    /// The leaves; the table is filled in once the candidate survives (AND
    /// nodes) or copied from the member's stored cut (class pooling).
    cut: Cut,
    sig: u64,
    arr: u32,
    area: f64,
    /// The first `(i0, i1)` fanin-cut pair with this union (AND nodes only).
    pair: (u16, u16),
}

/// The direct fanin cut's leaves (sorted, without repetition): the "anchor"
/// every AND node must keep (or a subset of it) so the standard-cell mapper
/// always sees a cut with a trivially matchable function.
fn anchor_leaves(fanin0: Lit, fanin1: Lit) -> Cut {
    let (a, b) = (fanin0.node(), fanin1.node());
    let mut anchor = Cut::EMPTY;
    anchor.leaves[0] = a.min(b);
    anchor.len = 1;
    if a != b {
        anchor.leaves[1] = a.max(b);
        anchor.len = 2;
    }
    anchor
}

/// The state of one enumeration: the cut sets stored so far, the estimates
/// that rank candidates, and scratch reused across nodes.
struct Kernel<'a, R> {
    options: &'a CutsOptions,
    /// Every cut set stored so far, back to back: the future `CutSet`'s
    /// arena.
    arena: Vec<R>,
    /// The live range of each node visited so far.
    spans: Vec<Span>,
    est: Estimates,
    /// The current node's candidates, de-duplicated by leaf set.
    candidates: Vec<Candidate>,
    /// What `prune_and_cap` keeps of them, in stored order.
    kept: Vec<Candidate>,
    /// Signatures of the second fanin's cuts.
    sigs: Vec<u64>,
    /// Which nodes `finalize_class` has already visited.
    finalized: Vec<bool>,
}

/// Appends one cut set to `arena` and returns its range. `check_capacity`
/// bounds the arena by `u32::MAX` cuts, so the offsets cannot truncate.
fn store<R: Record>(arena: &mut Vec<R>, cuts: impl Iterator<Item = Cut>) -> Span {
    let start = arena.len();
    arena.extend(cuts.map(|cut| R::pack(&cut)));
    Span {
        start: start as u32,
        len: (arena.len() - start) as u32,
    }
}

/// Adds a candidate unless its leaf set is already present (first wins).
fn offer(candidates: &mut Vec<Candidate>, est: &Estimates, cut: Cut, sig: u64, pair: (u16, u16)) {
    let seen = candidates
        .iter()
        .any(|c| c.sig == sig && c.cut.same_leaves(&cut));
    if !seen {
        candidates.push(Candidate {
            cut,
            sig,
            arr: est.cut_arr(cut.leaves()),
            area: est.cut_area(cut.leaves()),
            pair,
        });
    }
}

impl<R: Record> Kernel<'_, R> {
    /// Stores a node that has exactly one cut (an input or the constant).
    fn single_cut(&mut self, cut: Cut) {
        let span = store(&mut self.arena, std::iter::once(cut));
        self.spans.push(span);
    }

    /// Stores the kept cuts followed by `id`'s trivial cut.
    fn store_kept(&mut self, id: NodeId) -> Span {
        let kept = self.kept.iter().map(|k| k.cut);
        store(
            &mut self.arena,
            kept.chain(std::iter::once(Cut::trivial(id))),
        )
    }

    /// Computes the non-trivial cuts of an AND node by merging its fanins'
    /// cut sets, with per-node dominance pruning and the priority-cut limit
    /// applied; the trivial cut is appended last.
    fn and_node_cuts(&mut self, id: NodeId, fanin0: Lit, fanin1: Lit) {
        let cut_size = self.options.cut_size;
        let cuts0 = &self.arena[self.spans[fanin0.node().index()].range()];
        let cuts1 = &self.arena[self.spans[fanin1.node().index()].range()];
        self.candidates.clear();
        self.sigs.clear();
        self.sigs
            .extend(cuts1.iter().map(|c| signature(c.leaves())));
        for (i0, c0) in cuts0.iter().enumerate() {
            let sig0 = signature(c0.leaves());
            for (i1, c1) in cuts1.iter().enumerate() {
                let sig = sig0 | self.sigs[i1];
                if sig.count_ones() as usize > cut_size {
                    continue;
                }
                if let Some(cut) = merge_leaves(c0.leaves(), c1.leaves(), cut_size) {
                    // `check_capacity` bounds a cut set by `u16::MAX` cuts.
                    let pair = (i0 as u16, i1 as u16);
                    offer(&mut self.candidates, &self.est, cut, sig, pair);
                }
            }
        }
        let anchor = anchor_leaves(fanin0, fanin1);
        self.prune_and_cap(id, Some(anchor.leaves()));
        // Only now, for the few survivors, the tables.
        let cuts0 = &self.arena[self.spans[fanin0.node().index()].range()];
        let cuts1 = &self.arena[self.spans[fanin1.node().index()].range()];
        for kept in &mut self.kept {
            let c0 = &cuts0[usize::from(kept.pair.0)];
            let c1 = &cuts1[usize::from(kept.pair.1)];
            kept.cut.truth = and_truth(c0, c1, fanin0, fanin1, kept.cut.leaves());
        }
        let span = self.store_kept(id);
        self.spans.push(span);
    }

    /// Three-dimensional dominance pruning (inputs × area × arrival) of
    /// `candidates` into `kept`: a cut is dropped only if another cut has a
    /// *subset* of its leaves, an arrival estimate no later, and an area
    /// estimate no larger — so a wider cut that reaches shallower logic
    /// survives next to a narrow-but-deep one. Survivors are ranked
    /// arrival-first (then size, then area) and truncated to the priority
    /// limit, except that a cut covering the `anchor` (the direct fanin cut
    /// or a subset of it) is always retained so the node stays
    /// library-matchable. Finally the node's own estimates are updated from
    /// the kept cuts.
    fn prune_and_cap(&mut self, id: NodeId, anchor: Option<&[NodeId]>) {
        let cut_limit = self.options.cut_limit;
        let (candidates, kept) = (&mut self.candidates, &mut self.kept);
        // Leaf sets are distinct, so the key is total and an unstable sort
        // (no allocation) yields the one possible order.
        candidates.sort_unstable_by(|a, b| {
            a.arr
                .cmp(&b.arr)
                .then(a.cut.len.cmp(&b.cut.len))
                .then(a.area.total_cmp(&b.area))
                .then_with(|| a.cut.leaves().cmp(b.cut.leaves()))
        });
        kept.clear();
        for cand in candidates.iter() {
            let dominated = kept.iter().any(|k| {
                k.arr <= cand.arr
                    && k.area <= cand.area
                    && k.sig & !cand.sig == 0
                    && k.cut.dominates(&cand.cut)
            });
            if !dominated {
                kept.push(*cand);
            }
        }
        // The anchor (or a leaf-subset of it, which is what can have
        // displaced it in the dominance filter) must survive the truncation:
        // if the best-ranked such cut sits beyond the limit, rescue it.
        let rescue = anchor.and_then(|anchor| {
            let inside = kept
                .iter()
                .position(|k| is_subset(k.cut.leaves(), anchor))?;
            (inside >= cut_limit).then(|| kept[inside])
        });
        kept.truncate(cut_limit);
        if let Some(rescued) = rescue {
            if kept.len() == cut_limit {
                kept.pop();
            }
            kept.push(rescued);
        }
        let node_arr = kept.iter().map(|k| k.arr).min().unwrap_or(0);
        let node_area = kept.iter().map(|k| k.area).fold(f64::INFINITY, f64::min);
        self.est.arr[id.index()] = node_arr;
        self.est.area[id.index()] = if kept.is_empty() { 0.0 } else { node_area };
    }

    /// Merges the cut sets of every member of a choice class into the class
    /// cuts stored on the representative node: each member's non-trivial
    /// cuts are phase-adjusted so their truth tables compute the
    /// *representative node's* function, deduplicated, dominance-pruned per
    /// class, capped at the priority limit, and the representative's trivial
    /// cut is appended.
    fn finalize_class(&mut self, node: NodeId, choices: &ChoiceAig) {
        if std::mem::replace(&mut self.finalized[node.index()], true) {
            return;
        }
        let Some(class) = choices.class_of(node) else {
            return;
        };
        let repr = class.repr();
        self.candidates.clear();
        for &member in &class.members {
            // The stored member cuts compute the member node's function; the
            // class convention makes `member ^ compl` the class function and
            // `repr ^ compl` the representative node's function, so the
            // relative phase below re-expresses each cut in terms of the
            // representative.
            let adjust = member.is_complemented() ^ repr.is_complemented();
            for cut in &self.arena[self.spans[member.node().index()].range()] {
                if cut.leaves() == [member.node()] && member.node() != node {
                    continue; // a non-representative trivial cut leaks the member
                }
                if cut.leaves() == [node] {
                    continue; // the representative's trivial cut is re-appended
                }
                let mut pooled = cut.unpack();
                if adjust {
                    pooled.truth = !pooled.truth & full_mask(pooled.size());
                }
                let sig = signature(pooled.leaves());
                offer(&mut self.candidates, &self.est, pooled, sig, (0, 0));
            }
        }
        // Re-pruning over the pooled member cuts also refreshes the
        // representative's depth/area estimates, so a class whose alternative
        // member reaches shallower logic advertises the better (depth-optimal)
        // estimate to every fanout — the choice-aware analogue of the
        // depth-optimal first pass.
        let anchor = match choices.aig().node(node) {
            AigNode::And { fanin0, fanin1 } => Some(anchor_leaves(*fanin0, *fanin1)),
            _ => None,
        };
        self.prune_and_cap(node, anchor.as_ref().map(Cut::leaves));
        // The pooled set supersedes the representative's own: append it and
        // re-point the range.
        self.spans[node.index()] = self.store_kept(node);
    }
}

/// Enumerates priority cuts for every node of `aig`.
///
/// # Panics
/// Panics if `options.cut_size` exceeds 6 (truth tables are stored in `u64`)
/// or is below 2, and if `options.cut_limit` or the network is too large for
/// the enumerator's index types (see [`MapError::CutSetTooLarge`]).
// The panics are the documented contract; the mappers' `try_` entry points
// report the capacity refusal as a typed error instead.
#[allow(clippy::panic)]
pub fn enumerate_cuts(aig: &Aig, options: &CutsOptions) -> CutSet {
    try_enumerate(aig, None, options).unwrap_or_else(|e| panic!("{e}"))
}

/// Enumerates priority cuts over a choice network: the cuts stored on a
/// choice-class representative are drawn from *all* members of the class, so
/// a choice-aware mapper sees every recorded structure of the signal. Cuts of
/// non-representative members remain their plain node cuts (they only feed
/// class merging), and all truth tables compute the function of the node the
/// cut is stored on, exactly like [`enumerate_cuts`].
///
/// Relies on the [`ChoiceAig`] ordering invariant: all members of a class
/// precede every fanout of its representative, so one bottom-up pass can
/// finalize each class before the first time it is consumed.
///
/// # Panics
/// Panics under the same conditions as [`enumerate_cuts`].
// See `enumerate_cuts`.
#[allow(clippy::panic)]
pub fn enumerate_cuts_with_choices(choices: &ChoiceAig, options: &CutsOptions) -> CutSet {
    try_enumerate(choices.aig(), Some(choices), options).unwrap_or_else(|e| panic!("{e}"))
}

/// The one bottom-up enumeration pass. With `choices`, a fanin's class is
/// finalized right before its first fanout merges its cuts — the only step
/// the plain path skips.
///
/// # Errors
/// [`MapError::CutSetTooLarge`] if `check_capacity` refuses the request.
///
/// # Panics
/// Panics if `options.cut_size` is outside `2..=6`.
pub(crate) fn try_enumerate(
    aig: &Aig,
    choices: Option<&ChoiceAig>,
    options: &CutsOptions,
) -> Result<CutSet, MapError> {
    assert!(
        options.cut_size <= MAX_CUT_LEAVES,
        "cut size is limited to 6 leaves"
    );
    assert!(options.cut_size >= 2, "cut size must be at least 2");
    let classes = choices.map_or(0, ChoiceAig::num_classes);
    check_capacity(aig.num_nodes(), classes, options)?;
    Ok(if options.cut_size <= NARROW_LEAVES {
        enumerate::<NarrowCut>(aig, choices, options)
    } else {
        enumerate::<Cut>(aig, choices, options)
    })
}

/// [`try_enumerate`] into an arena of `R` records.
fn enumerate<R: Record>(aig: &Aig, choices: Option<&ChoiceAig>, options: &CutsOptions) -> CutSet {
    let nodes = aig.num_nodes();
    let mut kernel = Kernel::<R> {
        options,
        arena: Vec::new(),
        spans: Vec::with_capacity(nodes),
        est: Estimates {
            arr: vec![0; nodes],
            area: vec![0.0; nodes],
        },
        candidates: Vec::new(),
        kept: Vec::new(),
        sigs: Vec::new(),
        finalized: vec![false; nodes],
    };
    for id in aig.node_ids() {
        match aig.node(id) {
            AigNode::Const => kernel.single_cut(Cut::EMPTY),
            AigNode::Input { .. } => kernel.single_cut(Cut::trivial(id)),
            AigNode::And { fanin0, fanin1 } => {
                if let Some(choices) = choices {
                    kernel.finalize_class(fanin0.node(), choices);
                    kernel.finalize_class(fanin1.node(), choices);
                }
                kernel.and_node_cuts(id, *fanin0, *fanin1);
            }
        }
    }
    // Classes only consumed by the outputs (or not at all) are finalized
    // last, in node order, so the mapper sees their choices too.
    if let Some(choices) = choices {
        for node in aig.node_ids() {
            kernel.finalize_class(node, choices);
        }
    }
    CutSet {
        arena: R::into_arena(kernel.arena),
        spans: kernel.spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig::{small_truth_table, Aig};

    fn sample() -> (Aig, Lit) {
        let mut aig = Aig::new("sample");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let d = aig.add_input("d");
        let ab = aig.and(a, b);
        let cd = aig.or(c, d);
        let f = aig.and(ab, cd);
        aig.add_output(f, "f");
        (aig, f)
    }

    #[test]
    fn inputs_have_only_trivial_cut() {
        let (aig, _) = sample();
        let cuts = enumerate_cuts(&aig, &CutsOptions::default());
        for &pi in aig.inputs() {
            assert_eq!(cuts.cuts(pi).len(), 1);
            assert_eq!(cuts.cuts(pi).iter().next(), Some(Cut::trivial(pi)));
        }
    }

    #[test]
    fn root_has_full_support_cut_with_correct_truth() {
        let (aig, f) = sample();
        let cuts = enumerate_cuts(&aig, &CutsOptions::default());
        let root_cuts = cuts.cuts(f.node());
        // There must be a cut whose leaves are exactly the four inputs.
        let inputs: Vec<NodeId> = aig.inputs().to_vec();
        let full = root_cuts
            .iter()
            .find(|c| c.leaves() == inputs)
            .expect("4-input cut exists");
        // Its truth table must match exhaustive simulation: (a&b)&(c|d).
        let expected = small_truth_table(&aig, 0);
        assert_eq!(full.truth, expected);
    }

    #[test]
    fn cut_size_limit_respected() {
        let mut aig = Aig::new("wide");
        let inputs = aig.add_inputs("x", 10);
        let all = aig.and_many(&inputs);
        aig.add_output(all, "f");
        let opts = CutsOptions {
            cut_size: 4,
            cut_limit: 8,
        };
        let cuts = enumerate_cuts(&aig, &opts);
        for id in aig.node_ids() {
            for cut in cuts.cuts(id) {
                assert!(cut.size() <= 4);
            }
        }
    }

    #[test]
    fn cut_limit_bounds_stored_cuts() {
        let mut aig = Aig::new("wide");
        let inputs = aig.add_inputs("x", 12);
        let all = aig.or_many(&inputs);
        aig.add_output(all, "f");
        let opts = CutsOptions {
            cut_size: 6,
            cut_limit: 3,
        };
        let cuts = enumerate_cuts(&aig, &opts);
        for id in aig.and_ids() {
            // At most cut_limit non-trivial cuts plus the trivial one.
            assert!(cuts.cuts(id).len() <= 4);
        }
    }

    #[test]
    fn complemented_fanins_reflected_in_truth() {
        let mut aig = Aig::new("c");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        // f = !a & b
        let f = aig.and(a.not(), b);
        aig.add_output(f, "f");
        let cuts = enumerate_cuts(&aig, &CutsOptions::default());
        let c = cuts
            .cuts(f.node())
            .iter()
            .find(|c| c.leaves().len() == 2)
            .unwrap();
        assert_eq!(c.truth, small_truth_table(&aig, 0));
    }

    #[test]
    fn dominated_cuts_are_removed() {
        // 3-D dominance: a stored cut may only be leaf-subset-dominated by
        // another stored cut if it wins on the arrival or area estimate.
        // Recompute the estimates independently: node depth = min over its
        // stored non-trivial cuts of (1 + max leaf depth), node area = min
        // over cuts of (1 + sum of leaf areas), PIs at 0.
        let (aig, _) = sample();
        let cuts = enumerate_cuts(&aig, &CutsOptions::default());
        let mut depth = vec![0u32; aig.num_nodes()];
        let mut area = vec![0f64; aig.num_nodes()];
        let cut_depth = |c: &Cut, depth: &[u32]| {
            1 + c
                .leaves()
                .iter()
                .map(|l| depth[l.index()])
                .max()
                .unwrap_or(0)
        };
        let cut_area =
            |c: &Cut, area: &[f64]| 1.0 + c.leaves().iter().map(|l| area[l.index()]).sum::<f64>();
        for id in aig.and_ids() {
            let non_trivial: Vec<Cut> = cuts
                .cuts(id)
                .iter()
                .filter(|c| c.leaves() != [id])
                .collect();
            assert!(!non_trivial.is_empty());
            for (i, a) in non_trivial.iter().enumerate() {
                for (j, b) in non_trivial.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    let fully_dominated = a.dominates(b)
                        && a.leaves() != b.leaves()
                        && cut_depth(a, &depth) <= cut_depth(b, &depth)
                        && cut_area(a, &area) <= cut_area(b, &area);
                    assert!(
                        !fully_dominated,
                        "cut {:?} is 3-D dominated by {:?} at node {id}",
                        b.leaves(),
                        a.leaves()
                    );
                }
            }
            depth[id.index()] = non_trivial
                .iter()
                .map(|c| cut_depth(c, &depth))
                .min()
                .unwrap();
            area[id.index()] = non_trivial
                .iter()
                .map(|c| cut_area(c, &area))
                .fold(f64::INFINITY, f64::min);
        }
    }

    #[test]
    fn trivial_choice_network_matches_plain_enumeration() {
        // With no choice classes, the choice-aware enumerator must agree
        // with the plain one cut for cut.
        let (aig, _) = sample();
        let options = CutsOptions::default();
        let plain = enumerate_cuts(&aig, &options);
        let choices = ChoiceAig::trivial(aig.clone());
        let with_choices = enumerate_cuts_with_choices(&choices, &options);
        for id in aig.node_ids() {
            assert!(plain.cuts(id).iter().eq(with_choices.cuts(id)), "node {id}");
        }
    }

    #[test]
    fn class_cuts_cover_all_members() {
        // f = (a & b) | c in SOP form feeds the output; the POS form rides
        // along as a choice (built first: the representative must be the
        // topologically last member). The representative's cut set must
        // contain cuts drawn from the alternative structure (the OR-of-pairs
        // shape), all computing the representative node's function.
        let mut aig = Aig::new("choice");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let a_or_c = aig.or(a, c);
        let b_or_c = aig.or(b, c);
        let f2 = aig.and(a_or_c, b_or_c);
        let ab = aig.and(a, b);
        let f1 = aig.or(ab, c); // complemented AND node
        aig.add_output(f1, "f");
        let classes = vec![choices::ChoiceClass {
            members: vec![
                Lit::new(f1.node(), false),
                // f2 == f == !f1.node, so the member literal is complemented.
                Lit::new(f2.node(), true),
            ],
        }];
        let network = ChoiceAig::new(aig.clone(), classes).unwrap();
        let cuts = enumerate_cuts_with_choices(&network, &CutsOptions::default());
        let repr_cuts = cuts.cuts(f1.node());
        // The alternative's fanin cut {a_or_c, b_or_c} must appear.
        let alt_cut = repr_cuts
            .iter()
            .find(|cut| cut.leaves() == [a_or_c.node(), b_or_c.node()])
            .expect("cut from the alternative structure");
        // All cuts compute the representative node's function: check by
        // simulation on every input pattern.
        for pattern in 0..8usize {
            let bits: Vec<bool> = (0..3).map(|i| pattern >> i & 1 == 1).collect();
            let mut values = vec![false; aig.num_nodes()];
            for id in aig.node_ids() {
                values[id.index()] = match aig.node(id) {
                    AigNode::Const => false,
                    AigNode::Input { index } => bits[*index as usize],
                    AigNode::And { fanin0, fanin1 } => {
                        (values[fanin0.node().index()] ^ fanin0.is_complemented())
                            && (values[fanin1.node().index()] ^ fanin1.is_complemented())
                    }
                };
            }
            let mut minterm = 0usize;
            for (i, leaf) in alt_cut.leaves().iter().enumerate() {
                if values[leaf.index()] {
                    minterm |= 1 << i;
                }
            }
            assert_eq!(
                alt_cut.truth >> minterm & 1 == 1,
                values[f1.node().index()],
                "pattern {pattern}"
            );
        }
    }

    #[test]
    fn member_trivial_cuts_do_not_leak_into_class_cuts() {
        let mut aig = Aig::new("leak");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let a_or_c = aig.or(a, c);
        let b_or_c = aig.or(b, c);
        let f2 = aig.and(a_or_c, b_or_c);
        let ab = aig.and(a, b);
        let f1 = aig.or(ab, c);
        aig.add_output(f1, "f");
        let classes = vec![choices::ChoiceClass {
            members: vec![Lit::new(f1.node(), false), Lit::new(f2.node(), true)],
        }];
        let network = ChoiceAig::new(aig, classes).unwrap();
        let cuts = enumerate_cuts_with_choices(&network, &CutsOptions::default());
        for cut in cuts.cuts(f1.node()) {
            assert_ne!(
                cut.leaves(),
                [f2.node()],
                "a member's trivial cut must not become a class cut"
            );
        }
    }

    #[test]
    fn truth_tables_of_all_cuts_are_consistent() {
        // For every cut of the output node, evaluating the cut function on
        // leaf values obtained by simulation must reproduce the node value.
        let (aig, f) = sample();
        let cuts = enumerate_cuts(&aig, &CutsOptions::default());
        for pattern in 0..16usize {
            let bits: Vec<bool> = (0..4).map(|i| pattern >> i & 1 == 1).collect();
            let node_value = aig.evaluate(&bits)[0];
            // Compute each internal node's value for leaf lookup.
            let mut values = vec![false; aig.num_nodes()];
            for id in aig.node_ids() {
                values[id.index()] = match aig.node(id) {
                    AigNode::Const => false,
                    AigNode::Input { index } => bits[*index as usize],
                    AigNode::And { fanin0, fanin1 } => {
                        (values[fanin0.node().index()] ^ fanin0.is_complemented())
                            && (values[fanin1.node().index()] ^ fanin1.is_complemented())
                    }
                };
            }
            for cut in cuts.cuts(f.node()) {
                let mut minterm = 0usize;
                for (i, leaf) in cut.leaves().iter().enumerate() {
                    if values[leaf.index()] {
                        minterm |= 1 << i;
                    }
                }
                assert_eq!(
                    cut.truth >> minterm & 1 == 1,
                    node_value,
                    "cut {:?} pattern {pattern}",
                    cut.leaves()
                );
            }
        }
    }

    /// `expand_truth` by its definition: one minterm at a time.
    fn expand_by_minterms(truth: u64, from: &[NodeId], to: &[NodeId]) -> u64 {
        let positions: Vec<usize> = from
            .iter()
            .map(|l| to.iter().position(|m| m == l).unwrap())
            .collect();
        let mut out = 0u64;
        for m in 0..1usize << to.len() {
            let mut src = 0usize;
            for (i, &pos) in positions.iter().enumerate() {
                if m >> pos & 1 == 1 {
                    src |= 1 << i;
                }
            }
            if truth >> src & 1 == 1 {
                out |= 1 << m;
            }
        }
        out
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn bit_parallel_expansion_matches_the_minterm_definition() {
        // Every leaf subset of every superset of up to six leaves, on random
        // tables (and the all-zero / all-one ones).
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for size in 0..=MAX_CUT_LEAVES {
            let to: Vec<NodeId> = (0..size).map(|i| NodeId(10 + 3 * i as u32)).collect();
            for subset in 0..1usize << size {
                let from: Vec<NodeId> = (0..size)
                    .filter(|i| subset >> i & 1 == 1)
                    .map(|i| to[i])
                    .collect();
                let mask = full_mask(from.len());
                let mut tables = vec![0, mask];
                tables.extend((0..8).map(|_| xorshift(&mut state) & mask));
                for truth in tables {
                    assert_eq!(
                        expand_truth(truth, &from, &to) & full_mask(size),
                        expand_by_minterms(truth, &from, &to),
                        "table {truth:#x} over {from:?} onto {to:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn swapping_adjacent_variables_permutes_the_minterms() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for var in 0..MAX_CUT_LEAVES - 1 {
            let tt = xorshift(&mut state);
            let swapped = swap_adjacent(tt, var);
            for m in 0..64usize {
                let (lo, hi) = (m >> var & 1, m >> (var + 1) & 1);
                let source = m & !(3 << var) | hi << var | lo << (var + 1);
                assert_eq!(swapped >> m & 1, tt >> source & 1, "var {var} minterm {m}");
            }
            assert_eq!(swap_adjacent(swapped, var), tt);
        }
    }

    #[test]
    fn signature_never_rejects_a_feasible_pair() {
        // Ids chosen to collide mod 64: the signature may undercount a
        // union, never overcount it.
        let pool: Vec<NodeId> = [1u32, 2, 65, 66, 129, 130, 3, 67]
            .iter()
            .map(|&i| NodeId(i))
            .collect();
        let subsets: Vec<Vec<NodeId>> = (0..1usize << pool.len())
            .map(|bits| {
                let mut s: Vec<NodeId> = (0..pool.len())
                    .filter(|i| bits >> i & 1 == 1)
                    .map(|i| pool[i])
                    .collect();
                s.sort_unstable();
                s
            })
            .filter(|s| s.len() <= 4)
            .collect();
        let mut hidden_overflow = false;
        for a in &subsets {
            for b in &subsets {
                let mut union = a.clone();
                union.extend(b.iter().filter(|l| !a.contains(l)));
                let popcount = (signature(a) | signature(b)).count_ones() as usize;
                assert!(popcount <= union.len(), "{a:?} ∪ {b:?}");
                for k in 2..=MAX_CUT_LEAVES {
                    let merged = merge_leaves(a, b, k);
                    assert_eq!(merged.is_some(), union.len() <= k);
                    if popcount > k {
                        assert!(merged.is_none(), "{a:?} ∪ {b:?} wrongly rejected at {k}");
                    }
                    hidden_overflow |= popcount <= k && merged.is_none();
                }
            }
        }
        // The collisions are real: some overflow was left to the exact merge.
        assert!(hidden_overflow);
    }

    #[test]
    fn merge_leaves_is_the_exact_sorted_union() {
        let n = |ids: &[u32]| ids.iter().map(|&i| NodeId(i)).collect::<Vec<_>>();
        let merged = |a: &[u32], b: &[u32], max| {
            merge_leaves(&n(a), &n(b), max).map(|cut| {
                assert_eq!(cut.truth, 0);
                cut.leaves().to_vec()
            })
        };
        // Equal, disjoint (both interleavings), nested, empty.
        assert_eq!(merged(&[3, 5, 9], &[3, 5, 9], 3), Some(n(&[3, 5, 9])));
        assert_eq!(merged(&[1, 4], &[2, 8], 4), Some(n(&[1, 2, 4, 8])));
        assert_eq!(merged(&[7, 8], &[1, 2], 4), Some(n(&[1, 2, 7, 8])));
        assert_eq!(merged(&[2, 4, 6, 8], &[4, 8], 4), Some(n(&[2, 4, 6, 8])));
        assert_eq!(merged(&[4, 8], &[2, 4, 6, 8], 4), Some(n(&[2, 4, 6, 8])));
        assert_eq!(merged(&[], &[5], 2), Some(n(&[5])));
        assert_eq!(merged(&[], &[], 2), Some(n(&[])));
        // Overflow, detected wherever the extra leaf sorts.
        assert_eq!(merged(&[1, 2, 3], &[4], 3), None);
        assert_eq!(merged(&[2, 3, 4], &[1], 3), None);
        assert_eq!(merged(&[1, 2, 3, 4, 5, 6], &[7], 6), None);
        assert_eq!(
            merged(&[1, 2, 3], &[4, 5, 6], 6),
            Some(n(&[1, 2, 3, 4, 5, 6]))
        );
        // Unused slots stay canonical, so equal leaf sets are equal cuts.
        let a = merge_leaves(&n(&[1, 9]), &n(&[9]), 6).unwrap();
        let b = merge_leaves(&n(&[1]), &n(&[1, 9]), 6).unwrap();
        assert_eq!(a, b);
    }

    /// The two-member class of `class_cuts_cover_all_members`.
    fn class_network() -> (ChoiceAig, NodeId) {
        let mut aig = Aig::new("choice");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let a_or_c = aig.or(a, c);
        let b_or_c = aig.or(b, c);
        let f2 = aig.and(a_or_c, b_or_c);
        let ab = aig.and(a, b);
        let f1 = aig.or(ab, c);
        aig.add_output(f1, "f");
        let classes = vec![choices::ChoiceClass {
            members: vec![Lit::new(f1.node(), false), Lit::new(f2.node(), true)],
        }];
        (ChoiceAig::new(aig, classes).unwrap(), f1.node())
    }

    #[test]
    fn a_replaced_class_range_is_not_counted() {
        let (network, repr) = class_network();
        let options = CutsOptions::default();
        let pooled = enumerate_cuts_with_choices(&network, &options);
        let plain = enumerate_cuts(network.aig(), &options);
        // `total_cuts` is what `cuts()` hands out, node by node ...
        let live: usize = network
            .aig()
            .node_ids()
            .map(|id| pooled.cuts(id).len())
            .sum();
        assert_eq!(pooled.total_cuts(), live);
        // ... which differs from the plain count only on the representative,
        assert_eq!(
            pooled.total_cuts() - pooled.cuts(repr).len(),
            plain.total_cuts() - plain.cuts(repr).len()
        );
        assert_eq!(plain.total_cuts(), plain.arena_len());
        // ... while the arena still holds the range finalization superseded.
        assert_eq!(
            pooled.arena_len(),
            pooled.total_cuts() + plain.cuts(repr).len()
        );
    }

    #[test]
    fn the_largest_cut_limit_is_accepted_and_one_more_refused() {
        let (aig, _) = sample();
        let at = |cut_limit| CutsOptions {
            cut_size: 4,
            cut_limit,
        };
        let widest = try_enumerate(&aig, None, &at(MAX_CUT_LIMIT)).unwrap();
        let default = enumerate_cuts(&aig, &at(8));
        for id in aig.node_ids() {
            assert!(widest.cuts(id).iter().eq(default.cuts(id)));
        }
        assert_eq!(
            try_enumerate(&aig, None, &at(MAX_CUT_LIMIT + 1)).unwrap_err(),
            MapError::CutSetTooLarge {
                nodes: aig.num_nodes(),
                cut_limit: MAX_CUT_LIMIT + 1
            }
        );
        assert!(try_enumerate(&aig, None, &at(usize::MAX)).is_err());
    }

    #[test]
    fn the_arena_stores_a_cut_in_at_most_20_bytes_up_to_four_leaves() {
        // The choice mapper's arena is the windowed flow's memory peak: a
        // field added to a record has to show up here first.
        let (aig, f) = sample();
        for cut_size in 2..=MAX_CUT_LEAVES {
            let cuts = enumerate_cuts(
                &aig,
                &CutsOptions {
                    cut_size,
                    cut_limit: 8,
                },
            );
            let budget = if cut_size <= 4 { 20 } else { 40 };
            assert!(
                cuts.stored_bytes_per_cut() <= budget,
                "{} bytes per cut at cut_size {cut_size}",
                cuts.stored_bytes_per_cut()
            );
            // The narrow record loses nothing: the four-leaf cut and its
            // table read back whole.
            let inputs = aig.inputs().to_vec();
            let full = cuts.cuts(f.node()).iter().find(|c| c.leaves() == inputs);
            assert_eq!(
                full.map(|c| c.truth),
                (cut_size >= 4).then(|| small_truth_table(&aig, 0))
            );
        }
    }

    #[test]
    fn a_network_beyond_the_arena_offsets_is_refused() {
        // 2^32 / (MAX_CUT_LIMIT + 1) is just over 65 537 nodes.
        assert!(check_capacity(
            65_537,
            0,
            &CutsOptions {
                cut_size: 4,
                cut_limit: MAX_CUT_LIMIT
            }
        )
        .is_ok());
        assert!(check_capacity(
            65_538,
            0,
            &CutsOptions {
                cut_size: 4,
                cut_limit: MAX_CUT_LIMIT
            }
        )
        .is_err());
        // Every class finalization appends one more set.
        assert!(check_capacity(
            40_000,
            30_000,
            &CutsOptions {
                cut_size: 4,
                cut_limit: MAX_CUT_LIMIT
            }
        )
        .is_err());
        assert!(check_capacity(usize::MAX / 2, 0, &CutsOptions::default()).is_err());
    }

    #[test]
    #[should_panic(expected = "cut limit 65535")]
    fn enumerate_cuts_panics_on_an_oversized_cut_limit() {
        let (aig, _) = sample();
        let _ = enumerate_cuts(
            &aig,
            &CutsOptions {
                cut_size: 4,
                cut_limit: MAX_CUT_LIMIT + 1,
            },
        );
    }

    #[test]
    #[should_panic(expected = "cut limit 65535")]
    fn enumerate_cuts_with_choices_panics_on_an_oversized_cut_limit() {
        let (network, _) = class_network();
        let _ = enumerate_cuts_with_choices(
            &network,
            &CutsOptions {
                cut_size: 4,
                cut_limit: MAX_CUT_LIMIT + 1,
            },
        );
    }
}
