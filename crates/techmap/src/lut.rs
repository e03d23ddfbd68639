//! Delay-oriented K-LUT mapping with area-flow recovery.
//!
//! This is the `if -K k -C c` analogue: the crate-private `cover` module —
//! the one statement of the *map → required → recover* algorithm — run over
//! K-feasible cuts under the unit model (every LUT costs one level and one
//! unit of area, and a complemented output is free: LUTs absorb inverters).

use crate::cover::{cover, CostModel};
use crate::cuts::{enumerate_cuts, Cut, CutsOptions, MAX_CUT_LEAVES};
use crate::MapOptions;
use aig::{Aig, AigNode, NodeId};

/// One mapped LUT: a root node implemented as a lookup table over the cut
/// leaves.
#[derive(Debug, Clone)]
pub struct Lut {
    /// The AND node implemented by this LUT.
    pub root: NodeId,
    /// The selected cut (leaves + truth table).
    pub cut: Cut,
}

/// The result of LUT mapping.
#[derive(Debug, Clone)]
pub struct LutMapping {
    /// Selected LUTs in topological order (fanins before fanouts).
    pub luts: Vec<Lut>,
    /// LUT depth of the mapping (levels on the longest PI→PO path).
    pub depth: u32,
}

impl LutMapping {
    /// Number of LUTs in the cover.
    pub fn num_luts(&self) -> usize {
        self.luts.len()
    }
}

/// Unit delay, unit area, every cut implementable. The arrival is `1 + max`
/// over the leaves, not [`crate::timing`]'s pin pairing.
struct UnitModel;

impl CostModel for UnitModel {
    type Impl = ();

    fn implement(&self, _cut: &Cut) -> Option<()> {
        Some(())
    }

    fn arrival(&self, (): (), leaf_arrivals: &[f64]) -> f64 {
        1.0 + leaf_arrivals.iter().copied().fold(0.0, f64::max)
    }

    fn area(&self, (): ()) -> f64 {
        1.0
    }

    fn leaf_delays(&self, (): (), _leaf_arrivals: &[f64]) -> [f64; MAX_CUT_LEAVES] {
        [1.0; MAX_CUT_LEAVES]
    }

    fn output_inverter(&self) -> (f64, f64) {
        (0.0, 0.0)
    }
}

/// Maps `aig` onto K-input LUTs.
///
/// # Panics
/// Panics under the conditions of [`enumerate_cuts`]: `options.cut_size`
/// outside `2..=6`, or a `cut_limit` or network too large for the
/// enumerator's index types.
pub fn map_to_luts(aig: &Aig, options: &MapOptions) -> LutMapping {
    let cut_options = CutsOptions {
        cut_size: options.cut_size,
        cut_limit: options.cut_limit,
    };
    let cuts = enumerate_cuts(aig, &cut_options);
    let covering = cover(aig, &cuts, &UnitModel, options.area_passes, None)
        .unwrap_or_else(|_| unreachable!("every AND node has a non-trivial cut"));
    LutMapping {
        luts: covering
            .roots(aig, &cuts)
            .map(|(root, cut, ())| Lut { root, cut })
            .collect(),
        // Levels are small integers, exact in `f64`.
        depth: covering.cover.delay as u32,
    }
}

/// Evaluates a LUT mapping on one input pattern (used for verification).
pub fn evaluate_mapping(aig: &Aig, mapping: &LutMapping, inputs: &[bool]) -> Vec<bool> {
    let mut values = vec![false; aig.num_nodes()];
    for (i, &input) in aig.inputs().iter().enumerate() {
        values[input.index()] = inputs[i];
    }
    for lut in &mapping.luts {
        let mut minterm = 0usize;
        for (i, leaf) in lut.cut.leaves().iter().enumerate() {
            if values[leaf.index()] {
                minterm |= 1 << i;
            }
        }
        values[lut.root.index()] = lut.cut.truth >> minterm & 1 == 1;
    }
    aig.outputs()
        .iter()
        .map(|po| {
            let base = match aig.node(po.node()) {
                AigNode::Const => false,
                _ => values[po.node().index()],
            };
            base ^ po.is_complemented()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adder(width: usize) -> Aig {
        let mut aig = Aig::new("adder");
        let a: Vec<_> = (0..width).map(|i| aig.add_input(format!("a{i}"))).collect();
        let b: Vec<_> = (0..width).map(|i| aig.add_input(format!("b{i}"))).collect();
        let mut carry = aig::Lit::FALSE;
        for i in 0..width {
            let axb = aig.xor(a[i], b[i]);
            let sum = aig.xor(axb, carry);
            let cout = aig.maj3(a[i], b[i], carry);
            aig.add_output(sum, format!("s{i}"));
            carry = cout;
        }
        aig.add_output(carry, "cout");
        aig
    }

    #[test]
    fn mapping_preserves_function() {
        let aig = adder(3);
        let mapping = map_to_luts(&aig, &MapOptions::lut6());
        for pattern in 0..64usize {
            let bits: Vec<bool> = (0..6).map(|i| pattern >> i & 1 == 1).collect();
            assert_eq!(
                evaluate_mapping(&aig, &mapping, &bits),
                aig.evaluate(&bits),
                "pattern {pattern}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "cut limit 65535")]
    fn an_oversized_cut_limit_panics_as_documented() {
        let options = MapOptions {
            cut_limit: 65_535,
            ..MapOptions::lut6()
        };
        let _ = map_to_luts(&adder(2), &options);
    }

    #[test]
    fn lut6_depth_not_worse_than_lut4() {
        let aig = adder(8);
        let m6 = map_to_luts(&aig, &MapOptions::lut6());
        let m4 = map_to_luts(
            &aig,
            &MapOptions {
                cut_size: 4,
                ..MapOptions::default()
            },
        );
        assert!(m6.depth <= m4.depth);
        assert!(m6.depth >= 1);
    }

    #[test]
    fn depth_is_much_smaller_than_aig_depth() {
        let aig = adder(8);
        let mapping = map_to_luts(&aig, &MapOptions::lut6());
        assert!(mapping.depth < aig.depth());
        assert!(mapping.num_luts() < aig.num_ands());
    }

    #[test]
    fn cover_contains_output_roots() {
        let aig = adder(2);
        let mapping = map_to_luts(&aig, &MapOptions::default());
        for po in aig.outputs() {
            if aig.node(po.node()).is_and() {
                assert!(
                    mapping.luts.iter().any(|l| l.root == po.node()),
                    "output root {:?} not covered",
                    po.node()
                );
            }
        }
    }

    #[test]
    fn area_pass_does_not_increase_depth() {
        let aig = adder(6);
        let with_area = map_to_luts(&aig, &MapOptions::lut6());
        let without_area = map_to_luts(
            &aig,
            &MapOptions {
                cut_size: 6,
                area_passes: 0,
                ..MapOptions::default()
            },
        );
        assert_eq!(with_area.depth, without_area.depth);
        assert!(with_area.num_luts() <= without_area.num_luts() + 2);
    }

    #[test]
    fn constant_and_passthrough_outputs() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        aig.add_output(aig::Lit::TRUE, "one");
        aig.add_output(a, "a");
        aig.add_output(a.not(), "na");
        let mapping = map_to_luts(&aig, &MapOptions::default());
        assert_eq!(mapping.num_luts(), 0);
        assert_eq!(mapping.depth, 0);
        assert_eq!(
            evaluate_mapping(&aig, &mapping, &[true]),
            vec![true, true, false]
        );
        assert_eq!(
            evaluate_mapping(&aig, &mapping, &[false]),
            vec![true, false, true]
        );
    }
}
