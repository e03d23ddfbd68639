//! Structural-choice computation: the `dch` analogue.
//!
//! ABC's `dch` accumulates structural choices by rewriting the network in
//! several ways and detecting functionally equivalent nodes across the
//! snapshots by simulation and SAT. Our substitute produces the same net
//! effect for the downstream mapper: it derives an alternative structure
//! (balance + rewrite), stacks it next to the original over shared inputs,
//! and SAT-sweeps the combined network so that equivalent cones collapse onto
//! a single (usually better) implementation.

use crate::{balance, rewrite};
use aig::Aig;
use cec::{SatSweeper, SweepOptions, SweepStats};
use choices::{ChoiceAig, ChoiceError, RebuildStats};

/// Options for [`dch_like`].
#[derive(Debug, Clone)]
pub struct DchOptions {
    /// Options forwarded to the SAT sweeper.
    pub sweep: SweepOptions,
    /// Also generate a balanced + rewritten alternative structure before
    /// sweeping (matches `dch`'s use of multiple synthesis snapshots).
    pub use_alternative_structure: bool,
}

impl Default for DchOptions {
    fn default() -> Self {
        DchOptions {
            sweep: SweepOptions::default(),
            use_alternative_structure: true,
        }
    }
}

/// Computes structural choices and returns the functionally reduced network.
///
/// The result is combinationally equivalent to the input; redundant
/// functionally equivalent cones (including those only exposed by the
/// alternative structure) are merged.
pub fn dch_like(aig: &Aig, options: &DchOptions) -> Aig {
    let combined = if options.use_alternative_structure {
        let alternative = rewrite(&balance(aig));
        aig::stack_over_shared_inputs(aig, &alternative, "_alt")
    } else {
        aig.clone()
    };
    let sweeper = SatSweeper::new(options.sweep.clone());
    let (swept, _stats) = sweeper.sweep(&combined);
    // Keep only the original outputs (the alternative copies were appended
    // after them and exist purely to seed equivalences).
    keep_first_outputs(&swept, aig.num_outputs())
}

/// Computes structural choices like [`dch_like`] but *keeps* them: instead of
/// collapsing equivalent cones onto one implementation, the original and the
/// alternative structure are stacked over shared inputs, the proved
/// equivalences become choice classes, and the result is returned as a
/// [`ChoiceAig`] — the same type the e-graph exporter produces — so a
/// choice-aware mapper can pick per cut between the original and the
/// rewritten structure.
///
/// # Errors
/// Returns a [`ChoiceError`] if the proved classes cannot be turned into a
/// valid choice network (overlapping classes).
pub fn dch_choices(
    aig: &Aig,
    options: &DchOptions,
) -> Result<(ChoiceAig, RebuildStats, SweepStats), ChoiceError> {
    let combined = if options.use_alternative_structure {
        let alternative = rewrite(&balance(aig));
        aig::stack_over_shared_inputs(aig, &alternative, "_alt")
    } else {
        aig.clone()
    };
    let sweeper = SatSweeper::new(options.sweep.clone());
    let (equiv, sweep_stats) = sweeper.find_equivalences(&combined);
    // Only the original outputs survive; the alternative copies exist purely
    // to seed equivalences (their cones stay alive as choice members).
    let trimmed = keep_outputs_with_dangling(&combined, aig.num_outputs());
    let (network, rebuild_stats) = ChoiceAig::from_network_with_classes(&trimmed, &equiv.classes)?;
    Ok((network, rebuild_stats, sweep_stats))
}

/// Keeps the first `count` outputs and every node: the logic of the removed
/// outputs stays, dangling, with its ids unchanged, so equivalence classes
/// computed on the full network remain valid.
fn keep_outputs_with_dangling(aig: &Aig, count: usize) -> Aig {
    let mut trimmed = aig.clone();
    trimmed.clear_outputs();
    for (idx, &po) in aig.outputs().iter().take(count).enumerate() {
        trimmed.add_output(po, aig.output_name(idx));
    }
    trimmed
}

/// Keeps only the first `count` outputs of a network and the logic they
/// reach.
fn keep_first_outputs(aig: &Aig, count: usize) -> Aig {
    keep_outputs_with_dangling(aig, count).cleanup()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cec::{check_equivalence, CecOptions};

    fn sample() -> Aig {
        let mut aig = Aig::new("sample");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let d = aig.add_input("d");
        let ab = aig.and(a, b);
        let ac = aig.and(a, c);
        let f = aig.or(ab, ac);
        let g = aig.mux(d, f, c);
        aig.add_output(f, "f");
        aig.add_output(g, "g");
        aig
    }

    #[test]
    fn dch_preserves_function() {
        let aig = sample();
        let out = dch_like(&aig, &DchOptions::default());
        assert_eq!(out.num_outputs(), aig.num_outputs());
        assert_eq!(out.num_inputs(), aig.num_inputs());
        assert!(check_equivalence(&aig, &out, &CecOptions::default()).is_equivalent());
    }

    #[test]
    fn dch_without_alternative_structure_is_a_sweep() {
        let aig = sample();
        let out = dch_like(
            &aig,
            &DchOptions {
                use_alternative_structure: false,
                ..DchOptions::default()
            },
        );
        assert!(check_equivalence(&aig, &out, &CecOptions::default()).is_equivalent());
        assert!(out.num_ands() <= aig.num_ands());
    }

    #[test]
    fn stacking_shares_inputs_and_concatenates_outputs() {
        let aig = sample();
        let alt = balance(&aig);
        let stacked = aig::stack_over_shared_inputs(&aig, &alt, "_alt");
        assert_eq!(stacked.num_inputs(), aig.num_inputs());
        assert_eq!(stacked.num_outputs(), aig.num_outputs() * 2);
        // Both halves implement the same functions.
        for p in 0..16usize {
            let bits: Vec<bool> = (0..4).map(|i| p >> i & 1 == 1).collect();
            let out = stacked.evaluate(&bits);
            assert_eq!(out[0], out[2], "pattern {p}");
            assert_eq!(out[1], out[3], "pattern {p}");
        }
    }

    #[test]
    fn dch_choices_produces_equivalent_members() {
        let aig = sample();
        let (network, rebuild, sweep) = dch_choices(&aig, &DchOptions::default()).unwrap();
        // The representative view is the original circuit's function.
        let repr = network.repr_network();
        assert!(check_equivalence(&aig, &repr, &CecOptions::default()).is_equivalent());
        // Every member literal evaluates to its class function. (Whether any
        // class survives depends on how different the rewritten structure
        // is; the invariants must hold either way.)
        let report = choices::audit_choices(&network, audit::AuditLevel::Paranoid);
        assert!(report.is_clean(), "{report}");
        assert_eq!(rebuild.classes, network.num_classes());
        let _ = sweep;
    }

    #[test]
    fn dch_choices_without_alternative_structure_still_validates() {
        let aig = sample();
        let (network, _, _) = dch_choices(
            &aig,
            &DchOptions {
                use_alternative_structure: false,
                ..DchOptions::default()
            },
        )
        .unwrap();
        let repr = network.repr_network();
        assert!(check_equivalence(&aig, &repr, &CecOptions::default()).is_equivalent());
    }

    #[test]
    fn dch_does_not_grow_the_network() {
        let aig = sample();
        let out = dch_like(&aig, &DchOptions::default());
        // Sweeping the stacked structure must fold the duplicate back in.
        assert!(
            out.num_ands() <= aig.num_ands() + 2,
            "{} vs {}",
            out.num_ands(),
            aig.num_ands()
        );
    }
}
