//! Golden digests of every pass that rebuilds an AIG.
//!
//! The ledger pins these passes only through the flows' final netlists, and
//! the windowed paths had no golden at all. This test pins each of them bit
//! for bit on its own, on `mapper_golden.rs`'s five circuits: `strash_copy`,
//! `cleanup` (on a network with dangling nodes), `stack_over_shared_inputs`,
//! `SatSweeper::sweep`, `balance`, `rewrite`, `refactor`, `dch_like`,
//! `sop_balance`, `Netlist::to_aig`, an AIGER round trip and a cone
//! extraction in one test, `saturate_windows` (stitched AIG, classes,
//! boundary table, `StitchStats`) in a second.
//!
//! A digest folds the *output network node by node in creation order* —
//! every AND's fanin literals, every input's position, the output literals,
//! the design, input and output names — plus its `structural_fingerprint`,
//! so a pass that builds the same function through a different sequence of
//! `Aig::and` calls does not reproduce it. The constants were recorded at
//! commit `a7cfd64` — the last one with eleven hand-written id → literal
//! table walks — so any refactor of the rebuild walks in `aig`, `cec`,
//! `logic-opt`, `techmap`, `window` or `emorphic::windowed` has to reproduce
//! them unchanged.

// Helper fns here run outside #[test] context, so the clippy.toml
// test relaxation does not reach them.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use aig::io::{read_aiger, write_aiger};
use aig::{stack_over_shared_inputs, try_extract_cone, Aig, AigNode};
use aig::{FxHasher, Lit};
use cec::{SatSweeper, SweepOptions};
use choices::{ChoiceAig, ChoiceConfig};
use emorphic::flow::FlowConfig;
use emorphic::windowed::saturate_windows;
use logic_opt::{balance, dch_like, refactor, rewrite};
use std::hash::Hasher;
use techmap::cell::try_map_to_cells;
use techmap::library::asap7_like;
use techmap::sop::sop_balance;
use techmap::MapOptions;
use window::WindowOptions;

fn circuits() -> Vec<(&'static str, Aig)> {
    vec![
        ("adder8", benchgen::adder(8).aig),
        ("multiplier5", benchgen::multiplier(5).aig),
        ("arbiter8", benchgen::arbiter(8).aig),
        ("square_root8", benchgen::square_root(8).aig),
        ("random", benchgen::random_aig(8, 400, 6, 20_250)),
    ]
}

fn fold_str(h: &mut FxHasher, s: &str) {
    h.write_usize(s.len());
    h.write(s.as_bytes());
}

/// Folds a network node by node in creation order, then its outputs, names
/// and structural fingerprint.
fn fold_aig(h: &mut FxHasher, aig: &Aig) {
    fold_str(h, aig.name());
    h.write_usize(aig.num_nodes());
    for id in aig.node_ids() {
        match aig.node(id) {
            AigNode::Const => h.write_u8(0),
            AigNode::Input { index } => {
                h.write_u8(1);
                h.write_u32(*index);
            }
            AigNode::And { fanin0, fanin1 } => {
                h.write_u8(2);
                h.write_u32(fanin0.raw());
                h.write_u32(fanin1.raw());
            }
        }
    }
    for name in aig.input_names() {
        fold_str(h, name);
    }
    h.write_usize(aig.num_outputs());
    for (lit, name) in aig.outputs().iter().zip(aig.output_names()) {
        h.write_u32(lit.raw());
        fold_str(h, name);
    }
    h.write_u128(aig.structural_fingerprint());
}

fn aig_digest(aig: &Aig) -> u64 {
    let mut h = FxHasher::default();
    fold_aig(&mut h, aig);
    h.finish()
}

fn fold_choices(h: &mut FxHasher, network: &ChoiceAig) {
    fold_aig(h, network.aig());
    h.write_usize(network.classes().len());
    for class in network.classes() {
        h.write_usize(class.members.len());
        for member in &class.members {
            h.write_u32(member.raw());
        }
    }
}

/// The circuit with every other output removed and three gates nothing
/// reads added on top: the dangling logic `cleanup` has to drop.
fn with_dangling(aig: &Aig) -> Aig {
    let mut out = aig.clone();
    out.clear_outputs();
    for (i, &po) in aig.outputs().iter().enumerate().step_by(2) {
        out.add_output(po, aig.output_name(i));
    }
    let a = aig.inputs()[0].lit();
    let last = aig.outputs()[aig.num_outputs() - 1];
    let first = aig.outputs()[0];
    let x = out.xor(first, last);
    out.and(x, a.not());
    out
}

/// One digest per rebuilding pass, in the order of the module header.
fn pass_digests(aig: &Aig) -> Vec<(&'static str, u64)> {
    let balanced = balance(aig);
    let stacked = stack_over_shared_inputs(aig, &balanced, "_alt");
    let (swept, sweep_stats) = SatSweeper::new(SweepOptions::default()).sweep(&stacked);
    let swept_digest = {
        let mut h = FxHasher::default();
        fold_aig(&mut h, &swept);
        h.write_usize(sweep_stats.merged_nodes);
        h.finish()
    };
    let netlist =
        try_map_to_cells(aig, &asap7_like(), &MapOptions::default()).expect("mappable circuit");
    let aiger = read_aiger(&write_aiger(aig)).expect("own output parses");
    // The cone of the last two outputs, cut at the inputs.
    let roots: Vec<Lit> = aig.outputs().iter().rev().take(2).copied().collect();
    let cone = try_extract_cone(aig, &roots, None).expect("inputs cut every cone");
    vec![
        ("strash_copy", aig_digest(&aig.strash_copy())),
        ("cleanup", aig_digest(&with_dangling(aig).cleanup())),
        ("stack_over_shared_inputs", aig_digest(&stacked)),
        ("sweep", swept_digest),
        ("balance", aig_digest(&balanced)),
        ("rewrite", aig_digest(&rewrite(aig))),
        ("refactor", aig_digest(&refactor(aig))),
        ("dch_like", aig_digest(&dch_like(aig))),
        (
            "sop_balance",
            aig_digest(&sop_balance(aig, &MapOptions::lut6())),
        ),
        ("netlist_to_aig", aig_digest(&netlist.to_aig(aig))),
        ("aiger_roundtrip", aig_digest(&aiger)),
        ("extract_cone", aig_digest(&cone.aig)),
    ]
}

/// Stitched choice network, boundary table and stitch statistics of the
/// windowed choice path, with the number of stitched classes beside it.
fn saturate_windows_digest(aig: &Aig) -> Windowed {
    let (stitched, partition, report) = saturate_windows(
        aig,
        &WindowOptions::default(),
        &FlowConfig::fast(),
        &ChoiceConfig::default(),
    )
    .expect("windowed saturation succeeds");
    let mut h = FxHasher::default();
    fold_choices(&mut h, &stitched.network);
    h.write_usize(stitched.table.len());
    for entry in &stitched.table {
        match entry {
            Some(lit) => h.write_u32(lit.raw()),
            None => h.write_u32(u32::MAX),
        }
    }
    let stats = &stitched.stats;
    for value in [
        stats.boundary_literals,
        stats.classes,
        stats.alternatives,
        stats.replayed_nodes,
        stats.dropped_ordering,
        stats.dropped_duplicate,
        partition.windows.len(),
        report.windows_skipped,
    ] {
        h.write_usize(value);
    }
    (h.finish(), stats.classes)
}

/// Per circuit, the digests of [`pass_digests`] in order, recorded at
/// `a7cfd64`.
const GOLDEN_PASSES: [(&str, [u64; 12]); 5] = [
    (
        "adder8",
        [
            0x73c0_924e_1707_7fab,
            0x7c48_b186_1877_1793,
            0xfe03_c68e_f150_772d,
            0x79cd_e976_ac03_2e2b,
            0x73c0_924e_1707_7fab,
            0x73c0_924e_1707_7fab,
            0x73c0_924e_1707_7fab,
            0x73c0_924e_1707_7fab,
            0xf274_5f73_3667_fb94,
            0xc4a3_77c2_504e_cc66,
            0x73c0_924e_1707_7fab,
            0xcc61_d929_fe41_f30a,
        ],
    ),
    (
        "multiplier5",
        [
            0xad69_b9e3_b236_e33e,
            0x44fa_3ed8_a316_3ebf,
            0xdb8a_3999_1887_cc78,
            0xfb40_fa51_ac3d_e2ae,
            0xad69_b9e3_b236_e33e,
            0xad69_b9e3_b236_e33e,
            0xad69_b9e3_b236_e33e,
            0x08a3_ad7a_acc6_fa63,
            0x8244_4c5e_98de_84b5,
            0x6447_61c1_40d6_3408,
            0xad69_b9e3_b236_e33e,
            0x3653_ba8c_4f84_c8af,
        ],
    ),
    (
        "arbiter8",
        [
            0xb943_adbc_955a_22c4,
            0x90f0_14c0_db1f_b68f,
            0x5dd4_943e_9264_9387,
            0x14bf_485d_11b6_03cb,
            0xd7ed_e15d_c208_ffa5,
            0xb943_adbc_955a_22c4,
            0xb943_adbc_955a_22c4,
            0xb943_adbc_955a_22c4,
            0x01de_975d_ebbb_3093,
            0x5fa1_4a1b_6690_7483,
            0xb943_adbc_955a_22c4,
            0x72b6_d8e0_cf3e_d184,
        ],
    ),
    (
        "square_root8",
        [
            0xf91a_8e6b_64e6_84bf,
            0x88b5_7615_ba80_ce01,
            0xead7_2e43_fc97_f952,
            0x0cbd_8936_bccb_aec3,
            0xf928_40d9_1daf_d51a,
            0x222b_a582_0884_12d8,
            0x8548_21d7_64f8_af29,
            0x9404_dcf5_883a_e9d4,
            0x9711_244c_cb27_52a6,
            0x9f6f_9086_790f_9834,
            0xce56_7d00_145a_a5cc,
            0x7e58_9fc2_8787_5a90,
        ],
    ),
    (
        "random",
        [
            0x4efd_2133_d12d_2505,
            0xbcf0_9a6f_b418_07dc,
            0xf9b8_3e4e_0b21_e568,
            0xd8ea_463f_b741_75d7,
            0xf1ae_d01b_aaf7_2445,
            0xcf7f_1063_ca76_3764,
            0x5770_975d_cb0e_eeb3,
            0x8202_b70c_20e6_e48b,
            0x2847_3b60_0c48_7f2d,
            0x4fae_87bb_c92c_a927,
            0x4efd_2133_d12d_2505,
            0x6ac5_3eb1_a2e7_8fa3,
        ],
    ),
];

/// The windowed choice path's digest beside the number of stitched classes,
/// which shows it did something.
type Windowed = (u64, usize);

/// `(name, saturate_windows)`, recorded at `a7cfd64`.
const GOLDEN_WINDOWED: [(&str, Windowed); 7] = [
    ("adder8", (0xe240_1a1f_1a9b_afb2, 9)),
    ("multiplier5", (0x81b1_b267_ab67_6b7f, 40)),
    ("arbiter8", (0x8148_f5aa_6c5f_a08e, 137)),
    ("square_root8", (0x38fc_4764_5b57_dc82, 78)),
    ("random", (0xafd8_4668_89da_9bb0, 15)),
    ("random_wide", (0xbdca_f34d_60a2_5b50, 84)),
    ("hypotenuse4", (0x979c_4077_6447_f0fd, 122)),
];

#[test]
fn rebuilding_passes_reproduce_the_recorded_digests() {
    let got: Vec<(&str, Vec<(&str, u64)>)> = circuits()
        .iter()
        .map(|(name, aig)| (*name, pass_digests(aig)))
        .collect();
    let values: Vec<(&str, Vec<u64>)> = got
        .iter()
        .map(|(name, passes)| (*name, passes.iter().map(|(_, digest)| *digest).collect()))
        .collect();
    let golden: Vec<(&str, Vec<u64>)> = GOLDEN_PASSES
        .iter()
        .map(|(name, digests)| (*name, digests.to_vec()))
        .collect();
    assert_eq!(values, golden, "got {got:#x?}");
    // Each restructuring pass must change at least two of the circuits, or
    // its digests pin nothing `strash_copy`'s do not.
    for pass in ["balance", "rewrite", "refactor", "dch_like", "sop_balance"] {
        let changed = got
            .iter()
            .filter(|(_, passes)| {
                let digest_of = |wanted: &str| passes.iter().find(|(name, _)| *name == wanted);
                digest_of(pass).map(|p| p.1) != digest_of("strash_copy").map(|p| p.1)
            })
            .count();
        assert!(changed >= 2, "{pass} changes only {changed} circuit(s)");
    }
}

#[test]
fn windowed_paths_reproduce_the_recorded_digests() {
    let mut circuits = circuits();
    circuits.push(("random_wide", benchgen::random_aig(12, 800, 8, 11)));
    circuits.push(("hypotenuse4", benchgen::hypotenuse(4).aig));
    let got: Vec<(&str, Windowed)> = circuits
        .iter()
        .map(|(name, aig)| (*name, saturate_windows_digest(aig)))
        .collect();
    assert_eq!(got, GOLDEN_WINDOWED, "got {got:#x?}");
}
