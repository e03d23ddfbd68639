//! Property-based tests: every transformation in the stack must preserve the
//! Boolean function of randomly generated circuits.

use aig::Simulator;
use benchgen::random_aig;
use cec::{check_equivalence, CecOptions};
use egraph::{Runner, Scheduler};
use emorphic::extract::{BottomUpEngine, ExtractBudget, ExtractionCost, ExtractionEngine};
use emorphic::{aig_to_egraph, all_rules, try_selection_to_aig};
use logic_opt::{balance, dch_like, refactor, rewrite};
use proptest::prelude::*;
use techmap::cell::map_to_cells;
use techmap::library::asap7_like;
use techmap::sop::sop_balance;
use techmap::MapOptions;

/// Fast equivalence check for property tests: a healthy amount of random
/// simulation (for wide circuits) or exhaustive evaluation (for narrow ones).
fn functionally_equal(a: &aig::Aig, b: &aig::Aig) -> bool {
    if a.num_inputs() <= 10 {
        let patterns = 1usize << a.num_inputs();
        (0..patterns).all(|p| {
            let bits: Vec<bool> = (0..a.num_inputs()).map(|i| p >> i & 1 == 1).collect();
            a.evaluate(&bits) == b.evaluate(&bits)
        })
    } else {
        let sa = Simulator::random(a, 8, 99);
        let sb = Simulator::random(b, 8, 99);
        sa.output_signatures(a) == sb.output_signatures(b)
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    #[test]
    fn logic_opt_passes_preserve_function(
        inputs in 3usize..8,
        ands in 10usize..80,
        outputs in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let circuit = random_aig(inputs, ands, outputs, seed);
        for (name, transformed) in [
            ("balance", balance(&circuit)),
            ("rewrite", rewrite(&circuit)),
            ("refactor", refactor(&circuit)),
            ("strash", circuit.strash_copy()),
        ] {
            prop_assert!(functionally_equal(&circuit, &transformed), "{name} broke the function");
        }
    }

    #[test]
    fn sop_balance_and_mapping_preserve_function(
        inputs in 3usize..8,
        ands in 10usize..60,
        seed in 0u64..1_000,
    ) {
        let circuit = random_aig(inputs, ands, 2, seed);
        let balanced = sop_balance(&circuit, &MapOptions::lut6());
        prop_assert!(functionally_equal(&circuit, &balanced));
        // Mapped netlist evaluation must also agree on every pattern.
        let library = asap7_like();
        let netlist = map_to_cells(&circuit, &library, &MapOptions::default());
        for p in 0..(1usize << inputs.min(8)) {
            let bits: Vec<bool> = (0..inputs).map(|i| p >> i & 1 == 1).collect();
            prop_assert_eq!(netlist.evaluate(&circuit, &bits), circuit.evaluate(&bits));
        }
    }

    #[test]
    fn egraph_roundtrip_preserves_function_after_rewriting(
        inputs in 3usize..7,
        ands in 8usize..40,
        seed in 0u64..1_000,
    ) {
        let circuit = random_aig(inputs, ands, 2, seed);
        let conversion = aig_to_egraph(&circuit);
        let runner = Runner::with_egraph(conversion.egraph.clone())
            .with_iter_limit(3)
            .with_node_limit(10_000)
            .with_scheduler(Scheduler::Backoff { match_limit: 300, ban_length: 2 })
            .run(&all_rules());
        let roots: Vec<_> = conversion.roots.iter().map(|&r| runner.egraph.find(r)).collect();
        let extraction = BottomUpEngine::new(ExtractionCost::Size)
            .extract(&runner.egraph, &roots, &ExtractBudget::unlimited())
            .unwrap();
        let back = try_selection_to_aig(
            &runner.egraph,
            &extraction.selection,
            &roots,
            &conversion.input_names,
            &conversion.output_names,
            "roundtrip",
        )
        .unwrap();
        prop_assert!(functionally_equal(&circuit, &back));
    }

    #[test]
    fn dch_and_cec_agree_with_simulation(
        inputs in 3usize..7,
        ands in 8usize..40,
        seed in 0u64..500,
    ) {
        let circuit = random_aig(inputs, ands, 2, seed);
        let choices = dch_like(&circuit);
        prop_assert!(functionally_equal(&circuit, &choices));
        let verdict = check_equivalence(&circuit, &choices, &CecOptions::default());
        prop_assert!(verdict.is_equivalent());
    }
}
