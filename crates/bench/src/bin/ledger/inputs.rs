//! Input generation and the harness's own, seeded output check.
//!
//! The circuits are fixed: the benchgen generators' AIGs as they come.
//! `--seed` draws the simulation patterns of the output check only and never
//! reaches the program. A seeded random topological order of each AIG was
//! measured and dropped: saturation scheduling and SAT sweeping respond
//! chaotically to node order (`wall_s` 18-41 %, area 2-6 % across seeds), so
//! no bound could tell a regression from a reseed. The simulation check is
//! independent of the program's CEC: it compares the result against the
//! input on random patterns drawn here.

use aig::{Aig, FxHashMap, NodeId, SimVector, Simulator};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use techmap::cell::{Netlist, OutputDriver};

/// 64-bit words per input in the harness's simulation check (4096 patterns).
pub const SIM_WORDS: usize = 64;

/// A benchgen generator call, kept as data so a workload's circuit list can
/// be printed, resized for `--smoke` and regenerated for every set-up sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gen {
    Adder(usize),
    Arbiter(usize),
    Crossbar(usize, usize),
    Divider(usize),
    Log2(usize),
    MemCtrl(usize),
    Multiplier(usize),
}

impl Gen {
    /// Size-qualified name, e.g. `multiplier16` or `crossbar8x8`.
    pub fn label(self) -> String {
        match self {
            Gen::Adder(w) => format!("adder{w}"),
            Gen::Arbiter(n) => format!("arbiter{n}"),
            Gen::Crossbar(p, w) => format!("crossbar{p}x{w}"),
            Gen::Divider(w) => format!("divider{w}"),
            Gen::Log2(w) => format!("log2_{w}"),
            Gen::MemCtrl(w) => format!("mem_ctrl{w}"),
            Gen::Multiplier(w) => format!("multiplier{w}"),
        }
    }

    pub fn generate(self) -> Aig {
        match self {
            Gen::Adder(w) => benchgen::adder(w),
            Gen::Arbiter(n) => benchgen::arbiter(n),
            Gen::Crossbar(p, w) => benchgen::crossbar(p, w),
            Gen::Divider(w) => benchgen::divider(w),
            Gen::Log2(w) => benchgen::log2(w),
            Gen::MemCtrl(w) => benchgen::mem_ctrl(w),
            Gen::Multiplier(w) => benchgen::multiplier(w),
        }
        .aig
    }

    /// The `--smoke` stand-in: the same generator at a width of at most 6.
    pub fn smoke(self) -> Gen {
        match self {
            Gen::Adder(w) => Gen::Adder(w.min(6)),
            Gen::Arbiter(n) => Gen::Arbiter(n.min(5)),
            Gen::Crossbar(p, w) => Gen::Crossbar(p.min(2), w.min(2)),
            Gen::Divider(w) => Gen::Divider(w.min(3)),
            Gen::Log2(w) => Gen::Log2(w.min(4)),
            Gen::MemCtrl(w) => Gen::MemCtrl(w.min(3)),
            Gen::Multiplier(w) => Gen::Multiplier(w.min(3)),
        }
    }
}

/// The harness's random input patterns for a circuit with `inputs` inputs.
pub fn patterns(inputs: usize, seed: u64) -> Vec<SimVector> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5157_EC70_125A_11CE);
    (0..inputs)
        .map(|_| (0..SIM_WORDS).map(|_| rng.random::<u64>()).collect())
        .collect()
}

/// Output signatures of an AIG on the given patterns.
pub fn simulate_aig(aig: &Aig, patterns: &[SimVector]) -> Vec<SimVector> {
    Simulator::with_inputs(aig, patterns, SIM_WORDS).output_signatures(aig)
}

/// Output signatures of a mapped netlist, evaluated gate by gate from the
/// cut truth tables without going back through the program's own
/// netlist-to-AIG conversion. Leaves that no gate drives must be primary
/// inputs, which every network the mapper sees numbers `1..=inputs`.
pub fn simulate_netlist(
    netlist: &Netlist,
    patterns: &[SimVector],
) -> Result<Vec<SimVector>, String> {
    let mut values: FxHashMap<NodeId, SimVector> = FxHashMap::default();
    for (i, pattern) in patterns.iter().enumerate() {
        values.insert(NodeId(i as u32 + 1), pattern.clone());
    }
    for gate in &netlist.gates {
        let mut leaves: Vec<&SimVector> = Vec::with_capacity(gate.leaves.len());
        for leaf in &gate.leaves {
            leaves.push(values.get(leaf).ok_or_else(|| {
                format!("netlist leaf {} is neither an input nor a gate", leaf.0)
            })?);
        }
        let mut out = vec![0u64; SIM_WORDS];
        for minterm in 0..1usize << leaves.len() {
            if gate.truth >> minterm & 1 == 0 {
                continue;
            }
            for (w, slot) in out.iter_mut().enumerate() {
                let mut term = u64::MAX;
                for (i, leaf) in leaves.iter().enumerate() {
                    term &= if minterm >> i & 1 == 1 {
                        leaf[w]
                    } else {
                        !leaf[w]
                    };
                }
                *slot |= term;
            }
        }
        values.insert(gate.root, out);
    }
    netlist
        .outputs
        .iter()
        .map(|driver| {
            let fetch = |node: &NodeId| {
                values
                    .get(node)
                    .cloned()
                    .ok_or_else(|| format!("netlist output driver {} is undefined", node.0))
            };
            Ok(match driver {
                OutputDriver::Direct(node) => fetch(node)?,
                OutputDriver::Inverted(node) => fetch(node)?.iter().map(|w| !w).collect(),
                OutputDriver::Constant(value) => vec![if *value { u64::MAX } else { 0 }; SIM_WORDS],
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netlist_simulation_matches_the_source_aig() {
        let aig = Gen::Multiplier(4).generate();
        let netlist = techmap::cell::try_map_to_cells(
            &aig,
            &techmap::library::asap7_like(),
            &techmap::MapOptions::default(),
        )
        .expect("map");
        let pats = patterns(aig.num_inputs(), 3);
        assert_eq!(
            simulate_netlist(&netlist, &pats).expect("simulate"),
            simulate_aig(&aig, &pats)
        );
    }
}
