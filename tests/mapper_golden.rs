//! Golden digests of the LUT mapper and the standard-cell mapper.
//!
//! The ledger pins the mappers only at the knob settings the flows use. This
//! test pins them bit for bit where the ledger never looks: a handful of
//! benchgen circuits × `area_passes` 0/1/3 × `cut_limit` 4/8 × delay target
//! none / 1.2 × the delay-optimal critical path, LUT mapping at K = 4 and
//! `lut6`, and choice-aware cell mapping over one `ChoiceAig` exported from a
//! really saturated e-graph.
//!
//! A digest folds everything a mapper returns: LUT covers as (root, cut
//! leaves, truth) per LUT plus the depth; netlists as (cell, root, leaves,
//! truth) per gate, the `f64` bits of every gate arrival and required time,
//! of area, delay and effective target, the level count and every output
//! driver. The constants were recorded at commit `d36d1d5` — the last one
//! with two hand-synchronised covering cores — so any refactor of
//! `techmap::{cover, lut, cell, cuts}` has to reproduce them unchanged.

// Helper fns here run outside #[test] context, so the clippy.toml
// test relaxation does not reach them.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use aig::{Aig, FxHasher};
use choices::{egraph_to_choices, ChoiceAig, ChoiceConfig};
use egraph::{Runner, Scheduler};
use emorphic::{aig_to_egraph, all_rules};
use std::hash::Hasher;
use techmap::cell::{try_map_to_cells, try_map_to_cells_with_choices, Netlist, OutputDriver};
use techmap::library::asap7_like;
use techmap::lut::{map_to_luts, LutMapping};
use techmap::{CellLibrary, MapOptions};

const AREA_PASSES: [usize; 3] = [0, 1, 3];
const CUT_LIMITS: [usize; 2] = [4, 8];

fn circuits() -> Vec<(&'static str, Aig)> {
    vec![
        ("adder8", benchgen::adder(8).aig),
        ("multiplier5", benchgen::multiplier(5).aig),
        ("arbiter8", benchgen::arbiter(8).aig),
        ("square_root8", benchgen::square_root(8).aig),
        ("random", benchgen::random_aig(8, 400, 6, 20_250)),
    ]
}

fn fold_lut_mapping(h: &mut FxHasher, mapping: &LutMapping) {
    h.write_usize(mapping.luts.len());
    for lut in &mapping.luts {
        h.write_usize(lut.root.index());
        h.write_usize(lut.cut.leaves().len());
        for leaf in lut.cut.leaves() {
            h.write_usize(leaf.index());
        }
        h.write_u64(lut.cut.truth);
    }
    h.write_u32(mapping.depth);
}

fn fold_netlist(h: &mut FxHasher, netlist: &Netlist) {
    h.write_usize(netlist.gates.len());
    for gate in &netlist.gates {
        h.write_usize(gate.cell);
        h.write_usize(gate.root.index());
        h.write_usize(gate.leaves.len());
        for leaf in &gate.leaves {
            h.write_usize(leaf.index());
        }
        h.write_u64(gate.truth);
    }
    for t in netlist.gate_arrivals_ps() {
        h.write_u64(t.to_bits());
    }
    for t in netlist.gate_requireds_ps() {
        h.write_u64(t.to_bits());
    }
    h.write_u64(netlist.area_um2().to_bits());
    h.write_u64(netlist.delay_ps().to_bits());
    h.write_u64(netlist.delay_target_ps().to_bits());
    h.write_u32(netlist.levels());
    h.write_usize(netlist.num_inverters);
    for driver in &netlist.outputs {
        match driver {
            OutputDriver::Direct(node) => {
                h.write_u8(0);
                h.write_usize(node.index());
            }
            OutputDriver::Inverted(node) => {
                h.write_u8(1);
                h.write_usize(node.index());
            }
            OutputDriver::Constant(value) => {
                h.write_u8(2);
                h.write_u8(u8::from(*value));
            }
        }
    }
}

/// LUT covers over K ∈ {4, 6} × C ∈ {4, 8} × area passes ∈ {0, 1, 3}.
fn lut_digest(aig: &Aig) -> u64 {
    let mut h = FxHasher::default();
    for base in [MapOptions::default(), MapOptions::lut6()] {
        for cut_limit in CUT_LIMITS {
            for area_passes in AREA_PASSES {
                let options = MapOptions {
                    cut_limit,
                    area_passes,
                    ..base.clone()
                };
                fold_lut_mapping(&mut h, &map_to_luts(aig, &options));
            }
        }
    }
    h.finish()
}

/// Netlists over C ∈ {4, 8} × area passes ∈ {0, 1, 3} × delay target ∈
/// {none, 1.2 × critical path}, plus the K = 6 request the cell mapper
/// clamps to 4. `map` is the plain or the choice-aware entry point.
fn cell_digest(map: impl Fn(&MapOptions) -> Netlist) -> u64 {
    let mut h = FxHasher::default();
    for cut_limit in CUT_LIMITS {
        let optimal = map(&MapOptions {
            cut_limit,
            area_passes: 0,
            ..MapOptions::default()
        });
        for target in [None, Some(optimal.delay_ps() * 1.2)] {
            for area_passes in AREA_PASSES {
                let options = MapOptions {
                    cut_limit,
                    area_passes,
                    delay_target_ps: target,
                    ..MapOptions::default()
                };
                fold_netlist(&mut h, &map(&options));
            }
        }
    }
    fold_netlist(&mut h, &map(&MapOptions::lut6().with_area_passes(2)));
    h.finish()
}

/// Saturates a circuit for two iterations and exports it with up to four
/// members per class.
fn saturated_choices(aig: &Aig) -> ChoiceAig {
    let conversion = aig_to_egraph(aig);
    let runner = Runner::with_egraph(conversion.egraph)
        .with_iter_limit(2)
        .with_node_limit(8_000)
        .with_scheduler(Scheduler::Backoff {
            match_limit: 400,
            ban_length: 2,
        })
        .run(&all_rules());
    let roots: Vec<egraph::Id> = conversion
        .roots
        .iter()
        .map(|&r| runner.egraph.find(r))
        .collect();
    let (network, _stats) = egraph_to_choices(
        &runner.egraph,
        &roots,
        &conversion.input_names,
        &conversion.output_names,
        &conversion.name,
        &ChoiceConfig {
            max_choices: 4,
            ..ChoiceConfig::default()
        },
    )
    .expect("export succeeds");
    network
}

fn plain(aig: &Aig, library: &CellLibrary) -> u64 {
    cell_digest(|options| try_map_to_cells(aig, library, options).expect("mappable"))
}

/// `(name, LUT digest, cell digest)`, recorded at `d36d1d5`.
const GOLDEN: [(&str, u64, u64); 5] = [
    ("adder8", 0xd00c_e28c_b55f_a03e, 0x2aa0_bde3_0579_b8fa),
    ("multiplier5", 0x6cf7_5c64_f333_032b, 0x00a2_0998_829e_ab4c),
    ("arbiter8", 0xb072_fc39_9440_c131, 0x7aab_d7f7_d55a_32bb),
    ("square_root8", 0x2fdc_e8ae_d03c_f13a, 0x3e37_260b_0b7d_ed72),
    ("random", 0xef9e_dab3_8c09_f107, 0x9c6e_251f_3205_818b),
];

/// `(classes, alternatives, cell digest)` of the saturated `adder(6)` choice
/// network, recorded at `d36d1d5`.
const GOLDEN_CHOICES: (usize, usize, u64) = (13, 23, 0x27f9_3a26_f789_6ddd);

#[test]
fn lut_and_cell_mappers_reproduce_the_recorded_digests() {
    let library = asap7_like();
    let got: Vec<(&str, u64, u64)> = circuits()
        .iter()
        .map(|(name, aig)| (*name, lut_digest(aig), plain(aig, &library)))
        .collect();
    assert_eq!(got, GOLDEN, "got {got:#x?}");
}

#[test]
fn choice_aware_cell_mapper_reproduces_the_recorded_digest() {
    let library = asap7_like();
    let network = saturated_choices(&benchgen::adder(6).aig);
    let digest = cell_digest(|options| {
        try_map_to_cells_with_choices(&network, &library, options).expect("mappable")
    });
    let got = (network.num_classes(), network.num_alternatives(), digest);
    assert_eq!(got, GOLDEN_CHOICES, "got {got:#x?}");
    // The choices must matter, or this digest pins nothing the plain one
    // does not: the same AIG without its classes maps differently.
    assert_ne!(digest, plain(network.aig(), &library));
}
