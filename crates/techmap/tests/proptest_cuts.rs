//! Differential oracle for the priority-cut kernel.
//!
//! [`reference`] is the enumerator as it stood before the allocation-free
//! rewrite (commit `8b9e8b8`), moved here verbatim: one heap `Vec` of leaves
//! per cut, a truth table computed minterm by minterm for every merged pair,
//! a `Vec<Vec<Cut>>` result. It is the readable statement of the algorithm —
//! pair order, first-wins de-duplication, the rank key, the dominance scan,
//! the anchor rescue, class pooling — and `techmap::cuts` must agree with it
//! cut for cut, in order, truth tables included, on random AIGs and on
//! random valid choice networks, for every K in 2..=6 and C in 1..=8.
//!
//! Independently of the reference, every stored table is checked against
//! exhaustive simulation: on each input pattern, the table's bit at the
//! minterm the leaves take equals the value of the node the cut is stored
//! on. (Only *reachable* leaf assignments are constrained; on the others two
//! derivations of one leaf set may legitimately differ, which is why the
//! comparison against the reference pins which derivation is kept.)
//!
//! `PROPTEST_CASES` scales the coverage (CI pins 2000).

// Helper fns here run outside #[test] context, so the clippy.toml
// test relaxation does not reach them.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use aig::{Aig, Lit, NodeId, SimVector, Simulator};
use choices::{ChoiceAig, ChoiceClass};
use proptest::prelude::*;
use std::collections::BTreeMap;
use techmap::cuts::{enumerate_cuts, enumerate_cuts_with_choices};
use techmap::truth::full_mask;
use techmap::{CutSet, CutsOptions};

/// The parent commit's enumerator, verbatim (only its `use` lines and the
/// shared `CutsOptions` differ).
#[allow(dead_code)]
mod reference {
    use aig::{Aig, AigNode, Lit, NodeId};
    use choices::ChoiceAig;
    use techmap::truth::{full_mask, VAR_MASK};
    use techmap::CutsOptions;

    /// A cut: a set of leaves that separates a node from the primary inputs,
    /// together with the node's function over those leaves.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Cut {
        /// Leaf nodes, sorted by id. Variable `i` of [`Cut::truth`] is `leaves[i]`.
        pub leaves: Vec<NodeId>,
        /// Truth table of the root in terms of the leaves (low `2^n` bits).
        pub truth: u64,
    }

    impl Cut {
        /// Creates the trivial cut of a node (the node itself as single leaf).
        pub fn trivial(node: NodeId) -> Self {
            Cut {
                leaves: vec![node],
                truth: VAR_MASK[0] & full_mask(1),
            }
        }

        /// Number of leaves.
        pub fn size(&self) -> usize {
            self.leaves.len()
        }

        /// Returns `true` if `self`'s leaves are a subset of `other`'s leaves.
        pub fn dominates(&self, other: &Cut) -> bool {
            self.leaves.iter().all(|l| other.leaves.contains(l))
        }
    }

    /// Cut sets for every node of an AIG.
    #[derive(Debug, Clone)]
    pub struct CutSet {
        cuts: Vec<Vec<Cut>>,
    }

    impl CutSet {
        /// Returns the cuts of a node (the last one is always the trivial cut,
        /// except for primary inputs and the constant which only have it).
        pub fn cuts(&self, node: NodeId) -> &[Cut] {
            &self.cuts[node.index()]
        }

        /// Total number of stored cuts.
        pub fn total_cuts(&self) -> usize {
            self.cuts.iter().map(|c| c.len()).sum()
        }
    }

    /// Expands a cut's truth table to a superset leaf ordering.
    fn expand_truth(cut: &Cut, merged: &[NodeId]) -> u64 {
        let positions: Vec<usize> = cut
            .leaves
            .iter()
            .map(|l| {
                merged
                    .iter()
                    .position(|m| m == l)
                    .unwrap_or_else(|| unreachable!("leaf present in merged cut"))
            })
            .collect();
        let bits = 1usize << merged.len();
        let mut out = 0u64;
        for m in 0..bits {
            // Build the source minterm over the cut's own leaves.
            let mut src = 0usize;
            for (i, &pos) in positions.iter().enumerate() {
                if m >> pos & 1 == 1 {
                    src |= 1 << i;
                }
            }
            if cut.truth >> src & 1 == 1 {
                out |= 1 << m;
            }
        }
        out
    }

    /// Library-independent per-node estimates driving the 3-dimensional
    /// dominance pruning: `arr` is the unit-delay depth of the node's best cut
    /// (LUT levels), `area` the optimistic cut-count of its cheapest cover.
    struct Estimates {
        arr: Vec<u32>,
        area: Vec<f64>,
    }

    impl Estimates {
        fn new(capacity: usize) -> Self {
            Estimates {
                arr: Vec::with_capacity(capacity),
                area: Vec::with_capacity(capacity),
            }
        }

        /// Unit-delay arrival estimate of a cut: one level above its deepest leaf.
        fn cut_arr(&self, cut: &Cut) -> u32 {
            1 + cut
                .leaves
                .iter()
                .map(|l| self.arr[l.index()])
                .max()
                .unwrap_or(0)
        }

        /// Optimistic area estimate of a cut: itself plus its leaves' best areas.
        fn cut_area(&self, cut: &Cut) -> f64 {
            1.0 + cut.leaves.iter().map(|l| self.area[l.index()]).sum::<f64>()
        }
    }

    fn merge_cuts(a: &Cut, b: &Cut, fanin0: Lit, fanin1: Lit, max_size: usize) -> Option<Cut> {
        let mut leaves: Vec<NodeId> = a.leaves.clone();
        for &l in &b.leaves {
            if !leaves.contains(&l) {
                leaves.push(l);
            }
        }
        if leaves.len() > max_size {
            return None;
        }
        leaves.sort_unstable();
        let mask = full_mask(leaves.len());
        let mut ta = expand_truth(a, &leaves);
        let mut tb = expand_truth(b, &leaves);
        if fanin0.is_complemented() {
            ta = !ta & mask;
        }
        if fanin1.is_complemented() {
            tb = !tb & mask;
        }
        Some(Cut {
            leaves,
            truth: ta & tb & mask,
        })
    }

    /// Computes the non-trivial cuts of an AND node by merging its fanins' cut
    /// sets, with per-node dominance pruning and the priority-cut limit applied;
    /// the trivial cut is appended last.
    fn and_node_cuts(
        id: NodeId,
        fanin0: Lit,
        fanin1: Lit,
        all: &[Vec<Cut>],
        est: &mut Estimates,
        options: &CutsOptions,
    ) -> Vec<Cut> {
        let mut merged: Vec<Cut> = Vec::new();
        let cuts0 = &all[fanin0.node().index()];
        let cuts1 = &all[fanin1.node().index()];
        for c0 in cuts0 {
            for c1 in cuts1 {
                if let Some(cut) = merge_cuts(c0, c1, fanin0, fanin1, options.cut_size) {
                    // Skip duplicates.
                    if !merged.iter().any(|m| m.leaves == cut.leaves) {
                        merged.push(cut);
                    }
                }
            }
        }
        let anchor = anchor_leaves(fanin0, fanin1);
        prune_and_cap(merged, id, Some(anchor), est, options)
    }

    /// The direct fanin cut's leaves (sorted): the "anchor" every AND node must
    /// keep (or a subset of it) so the standard-cell mapper always sees a cut
    /// with a trivially matchable function.
    fn anchor_leaves(fanin0: Lit, fanin1: Lit) -> Vec<NodeId> {
        let mut anchor = vec![fanin0.node(), fanin1.node()];
        anchor.sort_unstable();
        anchor.dedup();
        anchor
    }

    /// Three-dimensional dominance pruning (inputs × area × arrival): a cut is
    /// dropped only if another cut has a *subset* of its leaves, an arrival
    /// estimate no later, and an area estimate no larger — so a wider cut that
    /// reaches shallower logic survives next to a narrow-but-deep one. Survivors
    /// are ranked arrival-first (then size, then area) and truncated to the
    /// priority limit, except that a cut covering the `anchor` (the direct
    /// fanin cut or a subset of it) is always retained so the node stays
    /// library-matchable; the trivial cut is appended last. Finally the node's
    /// own estimates are updated from the kept cuts.
    fn prune_and_cap(
        merged: Vec<Cut>,
        id: NodeId,
        anchor: Option<Vec<NodeId>>,
        est: &mut Estimates,
        options: &CutsOptions,
    ) -> Vec<Cut> {
        let mut scored: Vec<(Cut, u32, f64)> = merged
            .into_iter()
            .map(|c| {
                let arr = est.cut_arr(&c);
                let area = est.cut_area(&c);
                (c, arr, area)
            })
            .collect();
        scored.sort_by(|a, b| {
            a.1.cmp(&b.1)
                .then(a.0.size().cmp(&b.0.size()))
                .then(a.2.total_cmp(&b.2))
                .then(a.0.leaves.cmp(&b.0.leaves))
        });
        let mut kept: Vec<(Cut, u32, f64)> = Vec::new();
        for (cut, arr, area) in scored {
            let dominated = kept
                .iter()
                .any(|(k, karr, karea)| k.dominates(&cut) && *karr <= arr && *karea <= area);
            if !dominated {
                kept.push((cut, arr, area));
            }
        }
        // The anchor (or a leaf-subset of it, which is what can have displaced
        // it in the dominance filter) must survive the truncation.
        let is_sub = |c: &Cut, anchor: &[NodeId]| c.leaves.iter().all(|l| anchor.contains(l));
        let rescue = anchor.and_then(|anchor| {
            let inside = kept
                .iter()
                .take(options.cut_limit)
                .any(|(c, _, _)| is_sub(c, &anchor));
            if inside {
                None
            } else {
                kept.iter()
                    .position(|(c, _, _)| is_sub(c, &anchor))
                    .map(|pos| kept[pos].clone())
            }
        });
        kept.truncate(options.cut_limit);
        if let Some(rescued) = rescue {
            if kept.len() == options.cut_limit {
                kept.pop();
            }
            kept.push(rescued);
        }
        let node_arr = kept.iter().map(|(_, arr, _)| *arr).min().unwrap_or(0);
        let node_area = kept
            .iter()
            .map(|(_, _, area)| *area)
            .fold(f64::INFINITY, f64::min);
        set_estimate(
            est,
            id,
            node_arr,
            if kept.is_empty() { 0.0 } else { node_area },
        );
        let mut cuts: Vec<Cut> = kept.into_iter().map(|(c, _, _)| c).collect();
        cuts.push(Cut::trivial(id));
        cuts
    }

    /// Records a node's estimates, growing or overwriting as needed (class
    /// finalization revisits the representative after its initial pass).
    fn set_estimate(est: &mut Estimates, id: NodeId, arr: u32, area: f64) {
        if id.index() >= est.arr.len() {
            est.arr.resize(id.index() + 1, 0);
            est.area.resize(id.index() + 1, 0.0);
        }
        est.arr[id.index()] = arr;
        est.area[id.index()] = area;
    }

    /// Enumerates priority cuts for every node of `aig`.
    ///
    /// # Panics
    /// Panics if `options.cut_size` exceeds 6 (truth tables are stored in `u64`).
    pub fn enumerate_cuts(aig: &Aig, options: &CutsOptions) -> CutSet {
        enumerate(aig, None, options)
    }

    /// Merges the cut sets of every member of a choice class into the class cuts
    /// stored on the representative node: each member's non-trivial cuts are
    /// phase-adjusted so their truth tables compute the *representative node's*
    /// function, deduplicated, dominance-pruned per class, capped at the priority
    /// limit, and the representative's trivial cut is appended.
    fn finalize_class(
        node: NodeId,
        choices: &ChoiceAig,
        all: &mut [Vec<Cut>],
        est: &mut Estimates,
        finalized: &mut [bool],
        options: &CutsOptions,
    ) {
        if finalized[node.index()] {
            return;
        }
        finalized[node.index()] = true;
        let Some(class) = choices.class_of(node) else {
            return;
        };
        let repr = class.repr();
        let mut merged: Vec<Cut> = Vec::new();
        for &member in &class.members {
            // The stored member cuts compute the member node's function; the
            // class convention makes `member ^ compl` the class function and
            // `repr ^ compl` the representative node's function, so the relative
            // phase below re-expresses each cut in terms of the representative.
            let adjust = member.is_complemented() ^ repr.is_complemented();
            for cut in &all[member.node().index()] {
                if cut.leaves.len() == 1 && cut.leaves[0] == member.node() && member.node() != node
                {
                    continue; // a non-representative trivial cut leaks the member
                }
                if cut.leaves.len() == 1 && cut.leaves[0] == node {
                    continue; // the representative's trivial cut is re-appended
                }
                if merged.iter().any(|m| m.leaves == cut.leaves) {
                    continue;
                }
                let mask = full_mask(cut.size());
                let truth = if adjust { !cut.truth & mask } else { cut.truth };
                merged.push(Cut {
                    leaves: cut.leaves.clone(),
                    truth,
                });
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
        all[node.index()] = prune_and_cap(merged, node, anchor, est, options);
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
    /// Panics if `options.cut_size` exceeds 6 (truth tables are stored in `u64`).
    pub fn enumerate_cuts_with_choices(choices: &ChoiceAig, options: &CutsOptions) -> CutSet {
        enumerate(choices.aig(), Some(choices), options)
    }

    /// The one bottom-up enumeration pass. With `choices`, a fanin's class is
    /// finalized right before its first fanout merges its cuts — the only step
    /// the plain path skips.
    fn enumerate(aig: &Aig, choices: Option<&ChoiceAig>, options: &CutsOptions) -> CutSet {
        assert!(options.cut_size <= 6, "cut size is limited to 6 leaves");
        assert!(options.cut_size >= 2, "cut size must be at least 2");
        let mut all: Vec<Vec<Cut>> = Vec::with_capacity(aig.num_nodes());
        let mut est = Estimates::new(aig.num_nodes());
        let mut finalized: Vec<bool> = vec![false; aig.num_nodes()];
        for id in aig.node_ids() {
            let cuts = match aig.node(id) {
                AigNode::Const => {
                    set_estimate(&mut est, id, 0, 0.0);
                    vec![Cut {
                        leaves: Vec::new(),
                        truth: 0,
                    }]
                }
                AigNode::Input { .. } => {
                    set_estimate(&mut est, id, 0, 0.0);
                    vec![Cut::trivial(id)]
                }
                AigNode::And { fanin0, fanin1 } => {
                    if let Some(choices) = choices {
                        for fanin in [fanin0, fanin1] {
                            let node = fanin.node();
                            finalize_class(
                                node,
                                choices,
                                &mut all,
                                &mut est,
                                &mut finalized,
                                options,
                            );
                        }
                    }
                    and_node_cuts(id, *fanin0, *fanin1, &all, &mut est, options)
                }
            };
            all.push(cuts);
        }
        // Classes only consumed by the outputs (or not at all) are finalized
        // last, in node order, so the mapper sees their choices too.
        if let Some(choices) = choices {
            for node in aig.node_ids() {
                finalize_class(node, choices, &mut all, &mut est, &mut finalized, options);
            }
        }
        CutSet { cuts: all }
    }
}

/// Groups the AND nodes of `aig` by function up to complement and turns the
/// groups into choice classes: the representative is the last member, every
/// member literal carries the phase that makes it the class function. A
/// group of four or more is sometimes split in two so that one class's
/// representative is an alternative of the next — the case lazy class
/// finalization exists for — and large classes lose random members.
fn functional_classes(aig: &Aig, seed: u64) -> ChoiceAig {
    let sim = Simulator::exhaustive(aig);
    let mut groups: BTreeMap<SimVector, Vec<Lit>> = BTreeMap::new();
    for id in aig.and_ids() {
        // Normalise to the phase that is 0 on the all-zero pattern.
        let complemented = sim.node_signature(id)[0] & 1 == 1;
        let member = Lit::new(id, complemented);
        groups
            .entry(sim.lit_signature(member))
            .or_default()
            .push(member);
    }
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state as usize
    };
    let class = |repr: Lit, alternatives: &[Lit]| ChoiceClass {
        members: std::iter::once(repr)
            .chain(alternatives.iter().copied())
            .collect(),
    };
    let mut classes = Vec::new();
    for mut members in groups.into_values().filter(|g| g.len() >= 2) {
        // Members are in ascending id order.
        if members.len() >= 4 && next() % 2 == 0 {
            let split = 1 + next() % (members.len() - 2);
            classes.push(class(members[split], &members[..split]));
            let last = members.len() - 1;
            classes.push(class(members[last], &members[split..last]));
        } else {
            let repr = members.pop().unwrap();
            while members.len() > 4 {
                members.remove(next() % members.len());
            }
            classes.push(class(repr, &members));
        }
    }
    ChoiceAig::new(aig.clone(), classes).expect("functional classes are valid")
}

/// `got` and the reference agree on every node, cut for cut, in order.
fn assert_same_cuts(aig: &Aig, got: &CutSet, want: &reference::CutSet) {
    for id in aig.node_ids() {
        let (got, want) = (got.cuts(id), want.cuts(id));
        assert_eq!(got.len(), want.len(), "cut count at {id}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.leaves(), w.leaves, "leaves of cut {i} at {id}");
            assert_eq!(
                g.truth, w.truth,
                "table of cut {i} at {id} over {:?}",
                w.leaves
            );
        }
    }
    assert_eq!(got.total_cuts(), want.total_cuts(), "total_cuts");
}

/// Every stored table reproduces the value of the node it is stored on, on
/// every leaf assignment some input pattern produces.
fn assert_tables_simulate(aig: &Aig, cuts: &CutSet, cut_size: usize) {
    let sim = Simulator::exhaustive(aig);
    let value =
        |id: NodeId, pattern: usize| sim.node_signature(id)[pattern / 64] >> (pattern % 64) & 1;
    for id in aig.node_ids() {
        for cut in cuts.cuts(id) {
            assert!(cut.leaves().len() <= cut_size, "cut of {id} too wide");
            assert!(
                cut.leaves().windows(2).all(|w| w[0] < w[1]),
                "unsorted leaves at {id}"
            );
            assert_eq!(
                cut.truth & !full_mask(cut.leaves().len()),
                0,
                "stray high bits at {id}"
            );
            for pattern in 0..1usize << aig.num_inputs() {
                let minterm = cut
                    .leaves()
                    .iter()
                    .enumerate()
                    .fold(0, |m, (i, leaf)| m | (value(*leaf, pattern) << i));
                assert_eq!(
                    cut.truth >> minterm & 1,
                    value(id, pattern),
                    "cut {:?} of {id} on pattern {pattern}",
                    cut.leaves()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Plain enumeration equals the reference and simulates correctly.
    #[test]
    fn plain_enumeration_matches_the_reference(
        seed in 0u64..1_000_000,
        num_inputs in 2usize..7,
        num_ands in 4usize..200,
        // Many outputs keep most of the drawn nodes alive through `cleanup`.
        num_outputs in 1usize..40,
        cut_size in 2usize..7,
        cut_limit in 1usize..9,
    ) {
        let aig = benchgen::random_aig(num_inputs, num_ands, num_outputs, seed);
        let options = CutsOptions { cut_size, cut_limit };
        let got = enumerate_cuts(&aig, &options);
        assert_same_cuts(&aig, &got, &reference::enumerate_cuts(&aig, &options));
        assert_tables_simulate(&aig, &got, cut_size);
    }

    /// Choice-aware enumeration equals the reference and simulates
    /// correctly, over classes of functionally equal nodes (few inputs, so
    /// random networks are full of them).
    #[test]
    fn choice_enumeration_matches_the_reference(
        seed in 0u64..1_000_000,
        num_inputs in 2usize..6,
        num_ands in 8usize..300,
        num_outputs in 1usize..40,
        cut_size in 2usize..7,
        cut_limit in 1usize..9,
    ) {
        let aig = benchgen::random_aig(num_inputs, num_ands, num_outputs, seed);
        let network = functional_classes(&aig, seed);
        let options = CutsOptions { cut_size, cut_limit };
        let got = enumerate_cuts_with_choices(&network, &options);
        let want = reference::enumerate_cuts_with_choices(&network, &options);
        assert_same_cuts(network.aig(), &got, &want);
        assert_tables_simulate(network.aig(), &got, cut_size);
    }
}
