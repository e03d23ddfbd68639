//! Golden digests of the priority-cut enumerator.
//!
//! `tests/mapper_golden.rs` pins what the mappers *select*; this pins what
//! they select *from*: one digest per (circuit, mode) of the whole
//! [`CutSet`] in node order — per node the cut count, per cut its leaves and
//! its truth table, plus `total_cuts` — so a kernel change that reorders,
//! drops, re-derives or re-phases a single stored cut fails here even when
//! no cover happens to pick it. Modes: plain enumeration at (K, C) = (4, 8),
//! (6, 8) and (3, 2), and choice-aware enumeration at (4, 8) and (6, 8) over
//! a `ChoiceAig` exported from a really saturated e-graph of the same
//! circuit. One more choice network, saturated under wider limits, is
//! thirteen times the largest of those (release-only).
//!
//! Which of two derivations of one leaf set supplies the stored truth table
//! (they can differ on leaf combinations the network cannot produce) is only
//! observable over rich choice networks, so the export here is deeper than
//! `mapper_golden.rs`'s: three iterations, up to eight members per class.
//! Checked once by mutation when the digests were recorded: last-wins
//! de-duplication of merged fanin-cut pairs fails `square_root8` at (4, 8)
//! and `multiplier5` at (6, 8); last-wins de-duplication of pooled
//! class-member cuts fails `multiplier5` at (6, 8). (Swapping the two pair
//! loops moved no digest here, nor on 48 000 random AIGs and 10 800 random
//! choice networks; `proptest_cuts.rs` holds the order against the reference
//! enumerator cut for cut instead.)
//!
//! The constants were recorded at commit `8b9e8b8` — the last one whose
//! enumerator kept leaves in a heap `Vec` and computed a truth table for
//! every merged pair — so any rewrite of `techmap::cuts` has to reproduce
//! them unchanged.

// Helper fns here run outside #[test] context, so the clippy.toml
// test relaxation does not reach them.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use aig::{Aig, FxHasher};
use choices::{egraph_to_choices, ChoiceAig, ChoiceConfig};
use egraph::{Runner, Scheduler};
use emorphic::{aig_to_egraph, all_rules};
use std::hash::Hasher;
use techmap::cuts::{enumerate_cuts, enumerate_cuts_with_choices};
use techmap::{CutSet, CutsOptions};

/// The five circuits of `tests/mapper_golden.rs`.
fn circuits() -> Vec<(&'static str, Aig)> {
    vec![
        ("adder8", benchgen::adder(8).aig),
        ("multiplier5", benchgen::multiplier(5).aig),
        ("arbiter8", benchgen::arbiter(8).aig),
        ("square_root8", benchgen::square_root(8).aig),
        ("random", benchgen::random_aig(8, 400, 6, 20_250)),
    ]
}

/// Folds every stored cut of every node of `aig`, in node order.
fn cut_set_digest(aig: &Aig, cuts: &CutSet) -> u64 {
    let mut h = FxHasher::default();
    for id in aig.node_ids() {
        let node_cuts = cuts.cuts(id);
        h.write_usize(node_cuts.len());
        for cut in node_cuts {
            h.write_usize(cut.leaves().len());
            for leaf in cut.leaves() {
                h.write_usize(leaf.index());
            }
            h.write_u64(cut.truth);
        }
    }
    h.write_usize(cuts.total_cuts());
    h.finish()
}

/// Saturates a circuit for three iterations and exports it with up to eight
/// members per class.
fn saturated_choices(aig: &Aig) -> ChoiceAig {
    saturated_choices_within(aig, 8_000, 400)
}

/// [`saturated_choices`] under the given e-node and per-rule match limits.
fn saturated_choices_within(aig: &Aig, node_limit: usize, match_limit: usize) -> ChoiceAig {
    let conversion = aig_to_egraph(aig);
    let runner = Runner::with_egraph(conversion.egraph)
        .with_iter_limit(3)
        .with_node_limit(node_limit)
        .with_scheduler(Scheduler::Backoff {
            match_limit,
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
            max_choices: 8,
            ..ChoiceConfig::default()
        },
    )
    .expect("export succeeds");
    network
}

/// Plain enumeration at each `(cut_size, cut_limit)`.
const PLAIN_MODES: [(usize, usize); 3] = [(4, 8), (6, 8), (3, 2)];

/// `(name, plain digests in PLAIN_MODES order)`, recorded at `8b9e8b8`.
const GOLDEN_PLAIN: [(&str, [u64; 3]); 5] = [
    (
        "adder8",
        [
            0xcac9_04ad_6e18_af3c,
            0x8b01_ff5a_b676_1bf6,
            0x5c81_b08e_86df_ce59,
        ],
    ),
    (
        "multiplier5",
        [
            0x9407_3ef1_676c_bec8,
            0x7d90_5138_a857_3607,
            0x23d6_ab71_7d25_5c07,
        ],
    ),
    (
        "arbiter8",
        [
            0x5b4f_4906_9b45_1110,
            0x35ca_d4be_7281_25dd,
            0x02ca_cb42_51da_a310,
        ],
    ),
    (
        "square_root8",
        [
            0x533a_47c6_a17d_010a,
            0x870f_f57b_37b2_0cc6,
            0x560e_22f7_2b36_3e06,
        ],
    ),
    (
        "random",
        [
            0x44ed_d83b_2300_16f9,
            0x999c_094e_9d98_5aa4,
            0x6284_c117_17fb_86f2,
        ],
    ),
];

/// Choice-aware enumeration at each `(cut_size, cut_limit)`.
const CHOICE_MODES: [(usize, usize); 2] = [(4, 8), (6, 8)];

/// `(name, classes, alternatives, choice-aware digests in CHOICE_MODES
/// order)` over the saturated-and-exported network of each circuit, recorded
/// at `8b9e8b8`.
const GOLDEN_CHOICES: [(&str, usize, usize, [u64; 2]); 5] = [
    (
        "adder8",
        26,
        53,
        [0xf79f_1c38_38d5_3a1b, 0x23fe_2f18_f93e_f99b],
    ),
    (
        "multiplier5",
        158,
        297,
        [0x0bb9_7e95_0df0_2128, 0x8a2b_9558_3199_2006],
    ),
    (
        "arbiter8",
        189,
        400,
        [0x71f0_83fc_fa62_764c, 0xeaaf_e71f_5c5e_f54e],
    ),
    (
        "square_root8",
        106,
        194,
        [0x632f_e3d5_e94e_455e, 0xb128_e890_add3_a55a],
    ),
    (
        "random",
        10,
        17,
        [0x15ae_b7ca_23e8_fd28, 0x943d_4f91_89c7_34cf],
    ),
];

#[test]
fn plain_enumeration_reproduces_the_recorded_digests() {
    let got: Vec<(&str, [u64; 3])> = circuits()
        .iter()
        .map(|(name, aig)| {
            let digests = PLAIN_MODES.map(|(cut_size, cut_limit)| {
                let options = CutsOptions {
                    cut_size,
                    cut_limit,
                };
                cut_set_digest(aig, &enumerate_cuts(aig, &options))
            });
            (*name, digests)
        })
        .collect();
    assert_eq!(got, GOLDEN_PLAIN, "got {got:#x?}");
}

#[test]
fn choice_aware_enumeration_reproduces_the_recorded_digests() {
    let mut got = Vec::new();
    for (name, aig) in circuits() {
        let network = saturated_choices(&aig);
        let digests = CHOICE_MODES.map(|(cut_size, cut_limit)| {
            let options = CutsOptions {
                cut_size,
                cut_limit,
            };
            let pooled = enumerate_cuts_with_choices(&network, &options);
            let digest = cut_set_digest(network.aig(), &pooled);
            // The classes must matter, or this digest pins nothing the plain
            // one does not: the same network without them enumerates
            // differently.
            let plain = enumerate_cuts(network.aig(), &options);
            assert_ne!(digest, cut_set_digest(network.aig(), &plain), "{name}");
            digest
        });
        got.push((
            name,
            network.num_classes(),
            network.num_alternatives(),
            digests,
        ));
    }
    assert_eq!(got, GOLDEN_CHOICES, "got {got:#x?}");
}

/// `(name, network nodes, classes, alternatives, choice-aware digests in
/// CHOICE_MODES order)` of a choice network thirteen times the nodes and
/// cuts of the largest one above — the scale of the choice mapper's cut
/// arena on the windowed flow — recorded at `72de363`, the last commit that
/// stored every cut in the 40-byte six-leaf record.
const GOLDEN_LARGE_CHOICES: (&str, usize, usize, usize, [u64; 2]) = (
    "multiplier10",
    24_847,
    723,
    1_591,
    [0x1e8e_1dd2_76a4_362a, 0x204f_56a6_f5d1_8134],
);

/// Release-only: ~1 s in release, far longer in a debug build.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn choice_aware_enumeration_reproduces_the_recorded_digests_at_scale() {
    let network = saturated_choices_within(&benchgen::multiplier(10).aig, 200_000, 20_000);
    let digests = CHOICE_MODES.map(|(cut_size, cut_limit)| {
        let options = CutsOptions {
            cut_size,
            cut_limit,
        };
        cut_set_digest(
            network.aig(),
            &enumerate_cuts_with_choices(&network, &options),
        )
    });
    let got = (
        "multiplier10",
        network.aig().num_nodes(),
        network.num_classes(),
        network.num_alternatives(),
        digests,
    );
    assert_eq!(got, GOLDEN_LARGE_CHOICES, "got {got:#x?}");
}
