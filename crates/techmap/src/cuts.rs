//! K-feasible priority-cut enumeration with per-cut truth tables.
//!
//! This reproduces the cut computation behind ABC's `if -K <k> -C <c>`
//! mapper: every AND node stores at most `C` non-trivial cuts of at most `K`
//! leaves, merged bottom-up from its fanins, plus its trivial cut.

use crate::truth::{full_mask, VAR_MASK};
use aig::{Aig, AigNode, Lit, NodeId};
use choices::ChoiceAig;

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

    /// The leaf nodes, sorted by id.
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves
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
            if cut.leaves.len() == 1 && cut.leaves[0] == member.node() && member.node() != node {
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
                        finalize_class(node, choices, &mut all, &mut est, &mut finalized, options);
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
            assert_eq!(cuts.cuts(pi)[0].leaves, vec![pi]);
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
            .find(|c| c.leaves == inputs)
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
            .find(|c| c.leaves.len() == 2)
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
            1 + c.leaves.iter().map(|l| depth[l.index()]).max().unwrap_or(0)
        };
        let cut_area =
            |c: &Cut, area: &[f64]| 1.0 + c.leaves.iter().map(|l| area[l.index()]).sum::<f64>();
        for id in aig.and_ids() {
            let non_trivial: Vec<&Cut> = cuts
                .cuts(id)
                .iter()
                .filter(|c| c.leaves != vec![id])
                .collect();
            assert!(!non_trivial.is_empty());
            for (i, a) in non_trivial.iter().enumerate() {
                for (j, b) in non_trivial.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    let fully_dominated = a.dominates(b)
                        && a.leaves != b.leaves
                        && cut_depth(a, &depth) <= cut_depth(b, &depth)
                        && cut_area(a, &area) <= cut_area(b, &area);
                    assert!(
                        !fully_dominated,
                        "cut {:?} is 3-D dominated by {:?} at node {id}",
                        b.leaves, a.leaves
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
            assert_eq!(plain.cuts(id), with_choices.cuts(id), "node {id}");
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
            .find(|cut| cut.leaves == vec![a_or_c.node(), b_or_c.node()])
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
            for (i, leaf) in alt_cut.leaves.iter().enumerate() {
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
                cut.leaves,
                vec![f2.node()],
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
                for (i, leaf) in cut.leaves.iter().enumerate() {
                    if values[leaf.index()] {
                        minterm |= 1 << i;
                    }
                }
                assert_eq!(
                    cut.truth >> minterm & 1 == 1,
                    node_value,
                    "cut {:?} pattern {pattern}",
                    cut.leaves
                );
            }
        }
    }
}
