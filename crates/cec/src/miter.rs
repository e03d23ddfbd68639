//! Miter-based combinational equivalence checking.

use crate::sweep::{SatSweeper, SweepOptions};
use crate::tseitin::AigCnf;
use aig::{Aig, Simulator};
use sat::{Lit as SLit, SatResult, Solver};

/// Seed of the random simulation that refutes before any SAT call.
const SIM_SEED: u64 = 0xE5EED;

/// Options controlling a CEC run.
#[derive(Debug, Clone, PartialEq)]
pub struct CecOptions {
    /// Number of 64-bit random simulation words used for fast refutation.
    pub sim_words: usize,
    /// Conflict budget per SAT call (`None` = unlimited). Defaults to the
    /// same bounded [`crate::DEFAULT_CONFLICT_BUDGET`] as [`SweepOptions`].
    pub conflict_budget: Option<u64>,
}

impl Default for CecOptions {
    fn default() -> Self {
        CecOptions {
            sim_words: 16,
            conflict_budget: Some(crate::DEFAULT_CONFLICT_BUDGET),
        }
    }
}

/// An input assignment on which two circuits differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// One value per primary input.
    pub inputs: Vec<bool>,
    /// Index of an output where the two circuits disagree.
    pub output: usize,
}

/// Outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CecResult {
    /// The circuits are functionally equivalent on all outputs.
    Equivalent,
    /// The circuits differ; a witness is attached.
    NotEquivalent(Counterexample),
    /// The SAT budget was exhausted before a verdict was reached.
    Unknown,
}

impl CecResult {
    /// Returns `true` if the result proves equivalence.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, CecResult::Equivalent)
    }
}

/// Checks combinational equivalence of two AIGs with the same number of
/// inputs and outputs (matched by position).
///
/// The check first runs bit-parallel random simulation to look for a cheap
/// counterexample, then proves the remaining outputs pairwise with SAT.
///
/// # Panics
/// Panics if the interface sizes differ.
pub fn check_equivalence(golden: &Aig, revised: &Aig, options: &CecOptions) -> CecResult {
    assert_interfaces_match(golden, revised);

    // Phase 1: random simulation for fast refutation.
    if let Some(cex) = simulation_counterexample(golden, revised, options) {
        return CecResult::NotEquivalent(cex);
    }

    // Phase 2: SAT proof.
    let mut solver = Solver::new();
    solver.set_conflict_budget(options.conflict_budget);
    let shared: Vec<SLit> = (0..golden.num_inputs())
        .map(|_| SLit::pos(solver.new_var()))
        .collect();
    let cnf_a = AigCnf::encode(&mut solver, golden, Some(&shared));
    let cnf_b = AigCnf::encode(&mut solver, revised, Some(&shared));

    // One SAT call per output pair. A budget-exhausted output must not
    // short-circuit the loop: a later output may still be cheaply refutable,
    // and NotEquivalent always outranks Unknown.
    let mut any_unknown = false;
    for o in 0..golden.num_outputs() {
        let res = solve_output_pair(
            &mut solver,
            &shared,
            cnf_a.output_lits[o],
            cnf_b.output_lits[o],
        );
        match res {
            OutputVerdict::Equal => {}
            OutputVerdict::Differs(inputs) => {
                return CecResult::NotEquivalent(Counterexample { inputs, output: o })
            }
            OutputVerdict::Unknown => any_unknown = true,
        }
    }
    if any_unknown {
        CecResult::Unknown
    } else {
        CecResult::Equivalent
    }
}

/// Fraig-style CEC: the two circuits are stacked over shared inputs and
/// SAT-swept, so functionally equivalent internal cones merge bottom-up —
/// each merge a small, local SAT proof — before the remaining output pairs
/// are decided on the reduced network. Structurally related circuits (a
/// mapped netlist against its source, a resynthesized multiplier against the
/// original) usually collapse output-for-output during the sweep, closing
/// miters the monolithic [`check_equivalence`] cannot within the same
/// conflict budget.
///
/// # Panics
/// Panics if the interface sizes differ.
pub fn check_equivalence_swept(
    golden: &Aig,
    revised: &Aig,
    options: &CecOptions,
    sweep: &SweepOptions,
) -> CecResult {
    assert_interfaces_match(golden, revised);
    if let Some(cex) = simulation_counterexample(golden, revised, options) {
        return CecResult::NotEquivalent(cex);
    }

    let stacked = aig::stack_over_shared_inputs(golden, revised, "_b");
    let (reduced, stats) = SatSweeper::new(sweep.clone()).sweep(&stacked);
    debug_assert_eq!(
        stats.proved + stats.disproved + stats.unknown,
        stats.sat_calls + stats.window_proofs,
        "every pair the sweep queried ends in one verdict"
    );

    let n = golden.num_outputs();
    let outputs = reduced.outputs();
    let survivors: Vec<usize> = (0..n).filter(|&o| outputs[o] != outputs[o + n]).collect();
    if survivors.is_empty() {
        // A proof the sweep abandoned (`stats.unknown`) leaves its pair
        // unmerged: it can add a survivor, never hide one.
        return CecResult::Equivalent;
    }

    // What the sweep refuted, never paired up or ran out of budget on is
    // decided on the reduced network.
    let mut solver = Solver::new();
    solver.set_conflict_budget(options.conflict_budget);
    let cnf = AigCnf::encode(&mut solver, &reduced, None);
    let mut any_unknown = false;
    for o in survivors {
        let (la, lb) = (cnf.lit(outputs[o]), cnf.lit(outputs[o + n]));
        match solve_output_pair(&mut solver, &cnf.input_lits, la, lb) {
            OutputVerdict::Equal => {}
            OutputVerdict::Differs(inputs) => {
                return CecResult::NotEquivalent(Counterexample { inputs, output: o })
            }
            OutputVerdict::Unknown => any_unknown = true,
        }
    }
    if any_unknown {
        CecResult::Unknown
    } else {
        CecResult::Equivalent
    }
}

fn assert_interfaces_match(golden: &Aig, revised: &Aig) {
    assert_eq!(
        golden.num_inputs(),
        revised.num_inputs(),
        "CEC requires matching input counts ({} vs {})",
        golden.num_inputs(),
        revised.num_inputs()
    );
    assert_eq!(
        golden.num_outputs(),
        revised.num_outputs(),
        "CEC requires matching output counts ({} vs {})",
        golden.num_outputs(),
        revised.num_outputs()
    );
}

/// Bit-parallel random simulation over both circuits; returns a witness for
/// the first differing output pattern, if any.
fn simulation_counterexample(
    golden: &Aig,
    revised: &Aig,
    options: &CecOptions,
) -> Option<Counterexample> {
    if golden.num_inputs() == 0 || options.sim_words == 0 {
        return None;
    }
    let sim_a = Simulator::random(golden, options.sim_words, SIM_SEED);
    let sim_b = Simulator::random(revised, options.sim_words, SIM_SEED);
    let outs_a = sim_a.output_signatures(golden);
    let outs_b = sim_b.output_signatures(revised);
    for (o, (sa, sb)) in outs_a.iter().zip(outs_b.iter()).enumerate() {
        for (w, (wa, wb)) in sa.iter().zip(sb.iter()).enumerate() {
            let diff = wa ^ wb;
            if diff != 0 {
                let bit = diff.trailing_zeros() as usize;
                let pattern_index = w * 64 + bit;
                let inputs = recover_pattern(golden, options, pattern_index);
                return Some(Counterexample { inputs, output: o });
            }
        }
    }
    None
}

enum OutputVerdict {
    Equal,
    Differs(Vec<bool>),
    Unknown,
}

fn solve_output_pair(
    solver: &mut Solver,
    shared: &[SLit],
    out_a: SLit,
    out_b: SLit,
) -> OutputVerdict {
    // a != b is satisfiable in exactly two phases; check both with assumptions
    // so the solver stays reusable for the next output. A budget-exhausted
    // phase must not hide a cheap counterexample in the other one.
    let mut unknown = false;
    for (phase_a, phase_b) in [(true, false), (false, true)] {
        let assumptions = [
            if phase_a { out_a } else { !out_a },
            if phase_b { out_b } else { !out_b },
        ];
        match solver.solve_with_assumptions(&assumptions) {
            SatResult::Sat => {
                let inputs = shared
                    .iter()
                    .map(|&l| solver.value(l).unwrap_or(false))
                    .collect();
                return OutputVerdict::Differs(inputs);
            }
            SatResult::Unknown => unknown = true,
            SatResult::Unsat => {}
        }
    }
    if unknown {
        OutputVerdict::Unknown
    } else {
        OutputVerdict::Equal
    }
}

fn recover_pattern(aig: &Aig, options: &CecOptions, pattern_index: usize) -> Vec<bool> {
    // Re-generate the same random stimulus to recover the differing pattern.
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(SIM_SEED);
    let words = options.sim_words;
    let mut inputs = Vec::with_capacity(aig.num_inputs());
    for _ in 0..aig.num_inputs() {
        let sig: Vec<u64> = (0..words).map(|_| rng.random::<u64>()).collect();
        inputs.push(sig[pattern_index / 64] >> (pattern_index % 64) & 1 == 1);
    }
    inputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig::Lit;

    fn adder(width: usize, use_xor_form: bool) -> Aig {
        let mut aig = Aig::new("adder");
        let a: Vec<Lit> = (0..width).map(|i| aig.add_input(format!("a{i}"))).collect();
        let b: Vec<Lit> = (0..width).map(|i| aig.add_input(format!("b{i}"))).collect();
        let mut carry = Lit::FALSE;
        for i in 0..width {
            let (sum, cout) = if use_xor_form {
                let axb = aig.xor(a[i], b[i]);
                let sum = aig.xor(axb, carry);
                let cout = aig.maj3(a[i], b[i], carry);
                (sum, cout)
            } else {
                // mux-based formulation: sum = carry ? !(a^b) : (a^b)
                let axb = aig.xor(a[i], b[i]);
                let sum = aig.mux(carry, axb.not(), axb);
                let ab = aig.and(a[i], b[i]);
                let c_and_axb = aig.and(carry, axb);
                let cout = aig.or(ab, c_and_axb);
                (sum, cout)
            };
            aig.add_output(sum, format!("s{i}"));
            carry = cout;
        }
        aig.add_output(carry, "cout");
        aig
    }

    #[test]
    fn equivalent_adder_formulations() {
        let a = adder(4, true);
        let b = adder(4, false);
        let res = check_equivalence(&a, &b, &CecOptions::default());
        assert!(res.is_equivalent(), "got {res:?}");
    }

    #[test]
    fn detects_single_gate_bug() {
        let golden = adder(3, true);
        // Build a buggy version: swap an AND for an OR in the carry chain.
        let mut buggy = Aig::new("buggy");
        let a: Vec<Lit> = (0..3).map(|i| buggy.add_input(format!("a{i}"))).collect();
        let b: Vec<Lit> = (0..3).map(|i| buggy.add_input(format!("b{i}"))).collect();
        let mut carry = Lit::FALSE;
        for i in 0..3 {
            let axb = buggy.xor(a[i], b[i]);
            let sum = buggy.xor(axb, carry);
            let cout = if i == 1 {
                // Bug: OR of the three instead of majority.
                let t = buggy.or(a[i], b[i]);
                buggy.or(t, carry)
            } else {
                buggy.maj3(a[i], b[i], carry)
            };
            buggy.add_output(sum, format!("s{i}"));
            carry = cout;
        }
        buggy.add_output(carry, "cout");

        let res = check_equivalence(&golden, &buggy, &CecOptions::default());
        match res {
            CecResult::NotEquivalent(cex) => {
                // The counterexample must really distinguish the two circuits.
                let ga = golden.evaluate(&cex.inputs);
                let gb = buggy.evaluate(&cex.inputs);
                assert_ne!(ga, gb);
            }
            other => panic!("expected a counterexample, got {other:?}"),
        }
    }

    #[test]
    fn detects_output_inversion_without_simulation() {
        // Disable simulation so the SAT path produces the counterexample.
        let mut a = Aig::new("a");
        let x = a.add_input("x");
        let y = a.add_input("y");
        let f = a.and(x, y);
        a.add_output(f, "f");
        let mut b = Aig::new("b");
        let x2 = b.add_input("x");
        let y2 = b.add_input("y");
        let g = b.and(x2, y2);
        b.add_output(g.not(), "f");
        let opts = CecOptions {
            sim_words: 0,
            ..CecOptions::default()
        };
        let res = check_equivalence(&a, &b, &opts);
        match res {
            CecResult::NotEquivalent(cex) => {
                assert_ne!(a.evaluate(&cex.inputs), b.evaluate(&cex.inputs));
            }
            other => panic!("expected NotEquivalent, got {other:?}"),
        }
    }

    #[test]
    fn constant_only_circuits() {
        let mut a = Aig::new("a");
        let _ = a.add_input("x");
        a.add_output(Lit::TRUE, "one");
        let mut b = Aig::new("b");
        let _ = b.add_input("x");
        b.add_output(Lit::FALSE, "one");
        let res = check_equivalence(&a, &b, &CecOptions::default());
        assert!(matches!(res, CecResult::NotEquivalent(_)));
        let res_same = check_equivalence(&a, &a, &CecOptions::default());
        assert!(res_same.is_equivalent());
    }

    #[test]
    fn exhausted_first_phase_does_not_hide_a_cheap_counterexample() {
        // golden = h & !h' for two structures of one parity function: the
        // constant false, but only a search proves it. revised = the plain
        // input x. The phase "golden true, revised false" exhausts a tiny
        // budget; the phase "golden false, revised true" is satisfied by
        // any assignment with x = 1 and must still be reported.
        let build = |constant_side: bool| {
            let mut aig = Aig::new("phases");
            let v: Vec<Lit> = (0..12).map(|i| aig.add_input(format!("v{i}"))).collect();
            let x = aig.add_input("x");
            let out = if constant_side {
                let h = v[1..].iter().fold(v[0], |acc, &vi| aig.xor(acc, vi));
                let h2 = v[..11]
                    .iter()
                    .rev()
                    .fold(v[11], |acc, &vi| aig.xor(vi, acc));
                aig.and(h, h2.not())
            } else {
                x
            };
            aig.add_output(out, "f");
            aig
        };
        let (golden, revised) = (build(true), build(false));
        let opts = CecOptions {
            sim_words: 0,
            conflict_budget: Some(2),
        };
        match check_equivalence(&golden, &revised, &opts) {
            CecResult::NotEquivalent(cex) => {
                assert_ne!(golden.evaluate(&cex.inputs), revised.evaluate(&cex.inputs));
            }
            other => panic!("expected a counterexample, got {other:?}"),
        }
        // The budget really is too small for the first phase on its own.
        let unknown = check_equivalence(
            &golden,
            &{
                let mut zero = build(false);
                zero.set_output(0, Lit::FALSE);
                zero
            },
            &opts,
        );
        assert_eq!(unknown, CecResult::Unknown);
    }

    #[test]
    fn swept_cec_merges_equal_outputs_and_decides_the_survivors() {
        // No simulation, so both verdicts come from the sweep and its tail.
        let opts = CecOptions {
            sim_words: 0,
            ..CecOptions::default()
        };
        let sweep = SweepOptions::default();
        let golden = adder(4, true);
        let same = check_equivalence_swept(&golden, &adder(4, false), &opts, &sweep);
        assert!(same.is_equivalent(), "got {same:?}");

        // Invert the carry out: every sum pair still merges, one pair survives.
        let mut buggy = adder(4, false);
        let cout = buggy.outputs()[4];
        buggy.set_output(4, cout.not());
        match check_equivalence_swept(&golden, &buggy, &opts, &sweep) {
            CecResult::NotEquivalent(cex) => {
                assert_eq!(cex.output, 4);
                assert_ne!(golden.evaluate(&cex.inputs), buggy.evaluate(&cex.inputs));
            }
            other => panic!("expected a counterexample, got {other:?}"),
        }
    }
}
