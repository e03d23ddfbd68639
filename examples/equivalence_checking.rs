//! Combinational equivalence checking and SAT sweeping on their own:
//! verify that optimization preserved the function, and find internal
//! equivalences with the fraig-style sweeper.
//!
//! Run with: `cargo run --example equivalence_checking --release`

// Examples abort on broken invariants like test code does; the workspace
// deny on unwrap/expect/panic is relaxed here.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use aig::io::{read_eqn, write_aiger};
use cec::{check_equivalence, CecOptions, SatSweeper};
use logic_opt::{balance, refactor, rewrite};

fn main() {
    // Parse a circuit from the ABC-style equation format.
    let text = "\
INORDER = a b c d;
OUTORDER = f g;
t1 = a * b;
t2 = !c + d;
f = t1 * t2;
g = (a * b * d) + (t1 * !c);
";
    let golden = read_eqn(text).expect("valid equation file");
    println!(
        "parsed '{}' with {} inputs / {} outputs / {} AND nodes",
        golden.name(),
        golden.num_inputs(),
        golden.num_outputs(),
        golden.num_ands()
    );

    // Optimize it with the resyn-style sequence `st; rw; b; rf; b` and check
    // equivalence.
    let optimized = balance(&refactor(&balance(&rewrite(&golden.strash_copy()))));
    println!(
        "after 'st; rw; b; rf; b': {} AND nodes (was {})",
        optimized.num_ands(),
        golden.num_ands()
    );
    let result = check_equivalence(&golden, &optimized, &CecOptions::default());
    println!(
        "cec: {}",
        if result.is_equivalent() {
            "equivalent"
        } else {
            "NOT equivalent"
        }
    );

    // Introduce a deliberate bug and show the counterexample.
    let mut buggy = aig::Aig::new("buggy");
    let a = buggy.add_input("a");
    let b = buggy.add_input("b");
    let c = buggy.add_input("c");
    let d = buggy.add_input("d");
    let t1 = buggy.and(a, b);
    let t2 = buggy.or(c, d); // bug: should be !c + d
    let f = buggy.and(t1, t2);
    let abd = buggy.and(t1, d);
    let t1nc = buggy.and(t1, c.not());
    let g = buggy.or(abd, t1nc);
    buggy.add_output(f, "f");
    buggy.add_output(g, "g");
    match check_equivalence(&golden, &buggy, &CecOptions::default()) {
        cec::CecResult::NotEquivalent(cex) => {
            println!(
                "buggy circuit differs on output {} under inputs {:?}",
                golden.output_name(cex.output),
                cex.inputs
            );
        }
        other => println!("unexpected verdict for the buggy circuit: {other:?}"),
    }

    // SAT sweeping merges functionally equivalent internal nodes.
    let sweeper = SatSweeper::default();
    let (reduced, stats) = sweeper.sweep(&golden);
    println!(
        "SAT sweeping: {} SAT calls + {} window proofs, {} proved, {} merged nodes; {} -> {} ANDs",
        stats.sat_calls,
        stats.window_proofs,
        stats.proved,
        stats.merged_nodes,
        golden.num_ands(),
        reduced.num_ands()
    );

    // Export the reduced network as ASCII AIGER.
    let aiger = write_aiger(&reduced);
    println!("\nAIGER export of the swept network:\n{aiger}");
}
