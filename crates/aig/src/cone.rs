//! Cone extraction and MFFC computation.

use crate::{Aig, AigError, AigNode, Lit, NodeId};
use fxhash::FxHashSet;

/// A sub-circuit extracted from a host AIG.
///
/// The cone's inputs are the host's primary inputs that appear in the
/// transitive fanin of the selected outputs (or an explicit leaf set), and
/// its outputs are the selected root literals.
#[derive(Debug, Clone)]
pub struct Cone {
    /// The extracted sub-network.
    pub aig: Aig,
    /// For every cone input, the host node it corresponds to.
    pub leaf_map: Vec<NodeId>,
    /// For every cone output, the host literal it corresponds to.
    pub root_map: Vec<Lit>,
}

/// Extracts the logic cone driving `roots`.
///
/// If `leaves` is `None`, the cone extends down to the host's primary inputs;
/// otherwise the given nodes are treated as cut points and become the cone's
/// primary inputs (in the given order).
///
/// Not an [`Aig::rebuild`] rule: the walk is partial (the roots' fanin down to
/// the cut, nothing else) and the cone's inputs are the cut leaves, not the
/// host's inputs.
///
/// Empty `roots` are allowed (the cone then has the given leaves as inputs
/// and no outputs), and duplicate leaves map onto one cone input each.
///
/// # Errors
/// * [`AigError::InvalidNode`] — a root or leaf id lies outside the network.
/// * [`AigError::InvalidCut`] — the explicit leaf set does not dominate the
///   roots: some root-to-input path crosses no leaf, so logic below the cut
///   would be pulled into the cone. (Without an explicit cut every primary
///   input is a leaf, so this cannot fire for `leaves == None`.)
pub fn try_extract_cone(
    aig: &Aig,
    roots: &[Lit],
    leaves: Option<&[NodeId]>,
) -> Result<Cone, AigError> {
    let strict_cut = leaves.is_some();
    let mut cone = Aig::new(format!("{}_cone", aig.name()));
    let mut map: Vec<Option<Lit>> = vec![None; aig.num_nodes()];
    map[NodeId::CONST.index()] = Some(Lit::FALSE);
    let mut leaf_map = Vec::new();

    if let Some(leaves) = leaves {
        for &leaf in leaves {
            if leaf.index() >= aig.num_nodes() {
                return Err(AigError::InvalidNode(format!(
                    "cut leaf {leaf} out of range ({} nodes)",
                    aig.num_nodes()
                )));
            }
            if map[leaf.index()].is_some() {
                continue; // duplicate leaf: reuse the first input
            }
            let lit = cone.add_input(format!("{leaf}"));
            map[leaf.index()] = Some(lit);
            leaf_map.push(leaf);
        }
    }

    // Walk the fanin of the roots, stopping at explicit leaves so that logic
    // below the cut is not pulled into the cone.
    let mut reachable: FxHashSet<NodeId> = FxHashSet::default();
    let mut stack: Vec<NodeId> = Vec::new();
    for root in roots {
        if root.node().index() >= aig.num_nodes() {
            return Err(AigError::InvalidNode(format!(
                "root {} out of range ({} nodes)",
                root.node(),
                aig.num_nodes()
            )));
        }
        stack.push(root.node());
    }
    while let Some(id) = stack.pop() {
        if map[id.index()].is_some() || !reachable.insert(id) {
            continue;
        }
        if let AigNode::And { fanin0, fanin1 } = aig.node(id) {
            stack.push(fanin0.node());
            stack.push(fanin1.node());
        }
    }
    let mut ids: Vec<NodeId> = reachable.into_iter().collect();
    ids.sort_unstable();
    for id in ids {
        if map[id.index()].is_some() {
            continue;
        }
        match aig.node(id) {
            AigNode::Const => {
                map[id.index()] = Some(Lit::FALSE);
            }
            AigNode::Input { index } => {
                if strict_cut {
                    // An explicit cut must terminate every root-to-input
                    // path; reaching a primary input means some path missed
                    // the leaf set, and logic below the cut (this input, and
                    // any gates fed only from it) leaked into the cone.
                    return Err(AigError::InvalidCut(format!(
                        "leaf set does not dominate the roots: input {id} is reachable \
                         without crossing a leaf"
                    )));
                }
                let lit = cone.add_input(aig.input_name(*index as usize));
                map[id.index()] = Some(lit);
                leaf_map.push(id);
            }
            AigNode::And { fanin0, fanin1 } => {
                // Defense in depth: the topological sweep maps fanins before
                // fanouts, so an unmapped fanin should be impossible — keep
                // it a typed error rather than a panic.
                let fetch = |f: Lit, map: &[Option<Lit>]| -> Result<Lit, AigError> {
                    map[f.node().index()]
                        .map(|l| l.xor(f.is_complemented()))
                        .ok_or_else(|| {
                            AigError::InvalidCut(format!(
                                "leaf set does not dominate the roots: node {id} reads {} from \
                                 below the cut",
                                f.node()
                            ))
                        })
                };
                let a = fetch(*fanin0, &map)?;
                let b = fetch(*fanin1, &map)?;
                map[id.index()] = Some(cone.and(a, b));
            }
        }
    }

    let mut root_map = Vec::new();
    for (i, root) in roots.iter().enumerate() {
        // Reachable roots are always mapped by the walk above; `None` is
        // impossible here, but stays a typed error for defense in depth.
        let lit = map[root.node().index()]
            .ok_or_else(|| AigError::InvalidNode(format!("root {} not reachable", root.node())))?
            .xor(root.is_complemented());
        cone.add_output(lit, format!("root{i}"));
        root_map.push(*root);
    }

    Ok(Cone {
        aig: cone,
        leaf_map,
        root_map,
    })
}

/// Computes the size of the maximum fanout-free cone (MFFC) of `node`: the
/// number of AND gates that would become dangling if `node` were removed.
///
/// `fanout_counts` must come from [`Aig::fanout_counts`] on the same network.
/// Nodes with zero fanout (dangling ANDs, e.g. choice-network alternatives)
/// are valid arguments: their MFFC is the cone they alone keep alive. The
/// dereference walk saturates at zero, so a child whose count is already
/// exhausted — possible when `node` itself dangles and shares logic with
/// other dangling nodes — never underflows.
pub fn mffc_size(aig: &Aig, node: NodeId, fanout_counts: &[u32]) -> usize {
    if node.index() >= aig.num_nodes() {
        return 0;
    }
    let mut counts = fanout_counts.to_vec();
    let mut size = 0;
    // Dereference over an explicit stack: a cone is as deep as the network.
    let mut stack = vec![node];
    while let Some(id) = stack.pop() {
        let AigNode::And { fanin0, fanin1 } = aig.node(id) else {
            continue;
        };
        size += 1;
        for child in [fanin0.node(), fanin1.node()] {
            let c = &mut counts[child.index()];
            *c = c.saturating_sub(1);
            if *c == 0 {
                stack.push(child);
            }
        }
    }
    size
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Aig {
        let mut aig = Aig::new("sample");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let ab = aig.and(a, b);
        let abc = aig.and(ab, c);
        let other = aig.or(a, c);
        aig.add_output(abc, "f");
        aig.add_output(other, "g");
        aig
    }

    #[test]
    fn extract_cone_to_primary_inputs() {
        let aig = sample();
        let f = aig.outputs()[0];
        let cone = try_extract_cone(&aig, &[f], None).expect("primary inputs cut every cone");
        assert_eq!(cone.aig.num_outputs(), 1);
        assert_eq!(cone.aig.num_inputs(), 3);
        // f = a & b & c
        assert_eq!(cone.aig.evaluate(&[true, true, true]), vec![true]);
        assert_eq!(cone.aig.evaluate(&[true, true, false]), vec![false]);
    }

    #[test]
    fn extract_cone_with_explicit_cut() {
        let aig = sample();
        let f = aig.outputs()[0];
        // Cut at {ab, c}: the cone should be a single AND of its two leaves.
        // Pick whichever fanin of the root is the internal AND node `ab`.
        let ab_node = match aig.node(f.node()) {
            crate::AigNode::And { fanin0, fanin1 } => {
                if aig.node(fanin0.node()).is_and() {
                    fanin0.node()
                } else {
                    fanin1.node()
                }
            }
            _ => unreachable!(),
        };
        let c_node = aig.inputs()[2];
        let cone = try_extract_cone(&aig, &[f], Some(&[ab_node, c_node]))
            .expect("{ab, c} dominates the root");
        assert_eq!(cone.aig.num_inputs(), 2);
        assert_eq!(cone.aig.num_ands(), 1);
        assert_eq!(cone.leaf_map, vec![ab_node, c_node]);
    }

    #[test]
    fn try_extract_cone_rejects_non_dominating_cut() {
        // `top = ab & bc` with cut {ab, c_mid}, where `c_mid = bc & c` lies
        // *beside* the root's bc-path rather than on it: `top` reads `bc`
        // from below the cut, so the leaf set does not dominate the root.
        let mut host = Aig::new("deep");
        let a = host.add_input("a");
        let b = host.add_input("b");
        let c = host.add_input("c");
        let ab = host.and(a, b);
        let bc = host.and(b, c);
        let top = host.and(ab, bc);
        let c_mid = host.and(bc, c);
        host.add_output(top, "f");
        host.add_output(c_mid, "g");
        let err = try_extract_cone(&host, &[top], Some(&[ab.node(), c_mid.node()])).unwrap_err();
        assert!(matches!(err, crate::AigError::InvalidCut(_)), "{err}");
    }

    #[test]
    fn try_extract_cone_with_empty_roots() {
        // No roots: the cone is just the declared leaves as inputs, no
        // outputs, no gates. The partitioner hits this for empty windows.
        let aig = sample();
        let leaf = aig.inputs()[0];
        let cone = try_extract_cone(&aig, &[], Some(&[leaf])).unwrap();
        assert_eq!(cone.aig.num_outputs(), 0);
        assert_eq!(cone.aig.num_inputs(), 1);
        assert_eq!(cone.aig.num_ands(), 0);
        assert_eq!(cone.leaf_map, vec![leaf]);
        assert!(cone.root_map.is_empty());
        // Entirely empty call: a valid, empty cone.
        let empty = try_extract_cone(&aig, &[], None).unwrap();
        assert_eq!(empty.aig.num_nodes(), 1); // just the constant
    }

    #[test]
    fn try_extract_cone_rejects_out_of_range_ids() {
        let aig = sample();
        let f = aig.outputs()[0];
        let bogus = NodeId(999);
        let err = try_extract_cone(&aig, &[f], Some(&[bogus])).unwrap_err();
        assert!(matches!(err, crate::AigError::InvalidNode(_)), "{err}");
        let err = try_extract_cone(&aig, &[Lit::from_raw(999 << 1)], None).unwrap_err();
        assert!(matches!(err, crate::AigError::InvalidNode(_)), "{err}");
    }

    #[test]
    fn try_extract_cone_deduplicates_leaves() {
        let aig = sample();
        let f = aig.outputs()[0];
        let c = aig.inputs()[2];
        let a = aig.inputs()[0];
        let b = aig.inputs()[1];
        let cone = try_extract_cone(&aig, &[f], Some(&[a, b, c, c])).unwrap();
        // The duplicate leaf maps onto one cone input.
        assert_eq!(cone.leaf_map, vec![a, b, c]);
        assert_eq!(cone.aig.num_inputs(), 3);
        assert_eq!(cone.aig.evaluate(&[true, true, true]), vec![true]);
    }

    #[test]
    fn mffc_of_zero_fanout_node() {
        // A dangling AND (fanout 0) still owns its single-fanout cone; the
        // partitioner seeds from such nodes when choice alternatives dangle.
        let mut aig = Aig::new("dangling");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let ab = aig.and(a, b);
        let dangling = aig.and(ab, c); // never used as an output
        let fanouts = aig.fanout_counts();
        assert_eq!(mffc_size(&aig, dangling.node(), &fanouts), 2);
        // Inputs and the constant have empty MFFCs.
        assert_eq!(mffc_size(&aig, a.node(), &fanouts), 0);
        assert_eq!(mffc_size(&aig, NodeId::CONST, &fanouts), 0);
        // Out-of-range ids are answered with 0, not a panic.
        assert_eq!(mffc_size(&aig, NodeId(999), &fanouts), 0);
    }

    #[test]
    fn mffc_of_single_fanout_chain() {
        let mut aig = Aig::new("chain");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let ab = aig.and(a, b);
        let abc = aig.and(ab, c);
        aig.add_output(abc, "f");
        let fanouts = aig.fanout_counts();
        // Removing the top AND frees the whole chain of 2 gates.
        assert_eq!(mffc_size(&aig, abc.node(), &fanouts), 2);
        // The shared sample: removing abc in `sample()` frees 2 gates too
        // because `ab` has a single fanout there.
        let s = sample();
        let f = s.outputs()[0];
        let fo = s.fanout_counts();
        assert_eq!(mffc_size(&s, f.node(), &fo), 2);
    }
}
