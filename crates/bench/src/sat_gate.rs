//! The SAT-engine gate: the modern CDCL engine (`sat::Solver`) against the
//! first-generation solver kept as its oracle (`sat_oracle::ReferenceSolver`)
//! on the CNF workloads that sit on the flow's critical path.
//!
//! * **Miters** — each circuit is paired with a restructuring of itself and
//!   Tseitin-encoded over shared inputs; every output pair is decided with
//!   the same two-phase assumption queries the CEC uses. Both engines answer
//!   the identical query sequence.
//! * **Sweeps** — `SatSweeper::find_equivalences` over a choice-rich stacked
//!   network, with counterexample-guided class refinement on vs off.

use crate::gates::audit_check;
use crate::{num, Run, Table};
use aig::Aig;
use benchgen::SuiteScale;
use cec::{AigCnf, SatSweeper, SweepOptions};
use sat::dimacs::CnfFormula;
use sat::{ClauseSink, Lit as SLit, SatResult};
use sat_oracle::ReferenceSolver;
use std::time::Instant;

/// Rebuilds `aig` with its operand halves swapped (`f(a, b)` → `f(b, a)`).
/// For commutative arithmetic this yields an equivalent circuit with
/// structurally unrelated cones — the classic CEC workload, where conflict
/// analysis quality decides the outcome rather than structural luck.
fn commuted(aig: &Aig) -> Aig {
    let n = aig.num_inputs();
    let w = n / 2;
    let mut fresh = Aig::new(format!("{}_comm", aig.name()));
    let fresh_inputs: Vec<aig::Lit> = (0..n).map(|i| fresh.add_input(aig.input_name(i))).collect();
    let rotated: Vec<aig::Lit> = (0..n).map(|idx| fresh_inputs[(idx + w) % n]).collect();
    let map = aig.copy_logic_into(&mut fresh, &rotated);
    for (idx, &po) in aig.outputs().iter().enumerate() {
        let lit = map[po.node().index()].xor(po.is_complemented());
        fresh.add_output(lit, aig.output_name(idx));
    }
    fresh
}

/// The miter CNF: both circuits over shared inputs, plus the query plan
/// (every matched output pair, and one crossed pair to exercise Sat).
struct MiterInstance {
    cnf: CnfFormula,
    queries: Vec<[SLit; 2]>,
}

fn build_miter(golden: &Aig, revised: &Aig) -> MiterInstance {
    let mut cnf = CnfFormula::default();
    let shared: Vec<SLit> = (0..golden.num_inputs())
        .map(|_| SLit::pos(cnf.new_var()))
        .collect();
    let image_a = AigCnf::encode(&mut cnf, golden, Some(&shared));
    let image_b = AigCnf::encode(&mut cnf, revised, Some(&shared));
    let mut queries = Vec::new();
    for (o, (&a, &b)) in image_a
        .output_lits
        .iter()
        .zip(&image_b.output_lits)
        .enumerate()
    {
        // Two-phase inequivalence queries, exactly as the CEC issues them.
        queries.push([a, !b]);
        queries.push([!a, b]);
        if o == 0 && image_b.output_lits.len() >= 2 {
            // One crossed pair so the Sat/model path is exercised too.
            let c = image_b.output_lits[1];
            queries.push([a, !c]);
            queries.push([!a, c]);
        }
    }
    MiterInstance { cnf, queries }
}

/// One engine's answers to the query plan.
struct EngineRun {
    verdicts: Vec<SatResult>,
    /// Sat answers whose model violates a clause.
    bad_models: usize,
    solve_s: f64,
}

/// Runs the full query plan on one engine; `solve` and `value` adapt the two
/// solver APIs.
fn run_queries<S>(
    instance: &MiterInstance,
    engine: &mut S,
    mut solve: impl FnMut(&mut S, &[SLit]) -> SatResult,
    value: impl Fn(&S, SLit) -> Option<bool>,
) -> EngineRun {
    let mut run = EngineRun {
        verdicts: Vec::with_capacity(instance.queries.len()),
        bad_models: 0,
        solve_s: 0.0,
    };
    for q in &instance.queries {
        let t = Instant::now();
        let verdict = solve(engine, q);
        run.solve_s += t.elapsed().as_secs_f64();
        let satisfied =
            |clause: &Vec<SLit>| clause.iter().any(|&l| value(engine, l).unwrap_or(true));
        if verdict == SatResult::Sat && !instance.cnf.clauses.iter().all(satisfied) {
            run.bad_models += 1;
        }
        run.verdicts.push(verdict);
    }
    run
}

/// The gate's circuits: `(name, circuit, commuted partner?)`. Commuted pairs
/// give structurally unrelated miters, the rest are paired with a balanced
/// restructuring.
fn circuits(run: &Run) -> Vec<(String, Aig, bool)> {
    if run.smoke {
        return vec![
            ("adder16".into(), benchgen::adder(16).aig, true),
            ("multiplier4".into(), benchgen::multiplier(4).aig, true),
        ];
    }
    let (aw, mw, sw) = match run.scale {
        SuiteScale::Tiny => (16, 4, 4),
        SuiteScale::Small => (24, 5, 5),
        SuiteScale::Default => (32, 6, 6),
    };
    vec![
        (format!("adder{aw}"), benchgen::adder(aw).aig, true),
        (
            format!("multiplier{mw}"),
            benchgen::multiplier(mw).aig,
            true,
        ),
        (format!("square{sw}"), benchgen::square(sw).aig, false),
        ("hypotenuse4".into(), benchgen::hypotenuse(4).aig, false),
        ("arbiter8".into(), benchgen::arbiter(8).aig, false),
    ]
}

pub(crate) fn sat(run: &mut Run) {
    let circuits = circuits(run);
    let mut table = Table::new(&[
        "circuit",
        "engine",
        "queries",
        "sat",
        "unsat",
        "unk",
        "conflicts",
        "props",
        "solve(s)",
    ]);
    let (mut cdcl_s, mut reference_s) = (0.0, 0.0);
    for (name, golden, commute) in &circuits {
        let revised = if *commute {
            commuted(golden)
        } else {
            logic_opt::balance(golden)
        };
        let instance = build_miter(golden, &revised);

        let mut solver = instance.cnf.to_solver();
        let new = run_queries(
            &instance,
            &mut solver,
            |s, q| s.solve_with_assumptions(q),
            |s, l| s.value(l),
        );
        let new_stats = solver.stats();
        // The post-query solver state must satisfy every structural invariant
        // (watches, trail, heap, learnt LBDs).
        let solver_audit = audit::audit_solver(&solver, audit::AuditLevel::Paranoid);
        audit_check(
            run,
            "solver-audit-clean",
            name,
            &solver_audit,
            solver_audit.is_clean(),
        );

        let mut oracle = ReferenceSolver::new();
        instance.cnf.load_into(&mut oracle);
        let old = run_queries(
            &instance,
            &mut oracle,
            |s, q| s.solve_with_assumptions(q),
            |s, l| s.value(l),
        );
        let old_stats = oracle.stats();

        run.check("verdicts-agree", name, new.verdicts == old.verdicts, &[]);
        run.check(
            "models-satisfy-every-clause",
            name,
            new.bad_models + old.bad_models == 0,
            &[
                ("cdcl_bad", new.bad_models as f64),
                ("reference_bad", old.bad_models as f64),
            ],
        );
        run.check(
            "never-more-conflicts",
            name,
            new_stats.conflicts <= old_stats.conflicts,
            &[
                ("cdcl", new_stats.conflicts as f64),
                ("reference", old_stats.conflicts as f64),
            ],
        );
        cdcl_s += new.solve_s;
        reference_s += old.solve_s;

        // Every Unsat answer must come with an assumption core that is made
        // of assumptions and re-solves to Unsat (checked on a fresh solver so
        // the timed runs stay clean).
        let mut core_check = instance.cnf.to_solver();
        let mut bad_cores = 0usize;
        for (q, _) in instance
            .queries
            .iter()
            .zip(&new.verdicts)
            .filter(|(_, &v)| v == SatResult::Unsat)
        {
            let reproduced = core_check.solve_with_assumptions(q) == SatResult::Unsat;
            let core: Vec<SLit> = core_check.failed_assumptions().to_vec();
            let valid = reproduced
                && core.iter().all(|l| q.contains(l))
                && core_check.solve_with_assumptions(&core) == SatResult::Unsat;
            bad_cores += usize::from(!valid);
        }
        run.check(
            "unsat-cores-valid",
            name,
            bad_cores == 0,
            &[("bad_cores", bad_cores as f64)],
        );

        for (engine, answers, conflicts, propagations) in [
            ("cdcl", &new, new_stats.conflicts, new_stats.propagations),
            (
                "reference",
                &old,
                old_stats.conflicts,
                old_stats.propagations,
            ),
        ] {
            let count = |which| answers.verdicts.iter().filter(|&&v| v == which).count();
            table.row(vec![
                name.clone(),
                engine.into(),
                answers.verdicts.len().to_string(),
                count(SatResult::Sat).to_string(),
                count(SatResult::Unsat).to_string(),
                count(SatResult::Unknown).to_string(),
                conflicts.to_string(),
                propagations.to_string(),
                num(answers.solve_s, 3),
            ]);
        }
    }
    // Time is gated summed over the circuits: one circuit solves in
    // milliseconds, where scheduling noise alone can flip the comparison.
    let names: Vec<&str> = circuits.iter().map(|(name, ..)| name.as_str()).collect();
    run.check(
        "never-more-time",
        &names.join("+"),
        cdcl_s <= reference_s,
        &[("cdcl_s", cdcl_s), ("reference_s", reference_s)],
    );
    table.print("modern CDCL vs reference oracle, identical query plans");

    // Sweep workload: a choice-rich network (circuit stacked with two of its
    // restructurings) swept with and without counterexample refinement.
    let mut table = Table::new(&[
        "circuit",
        "cex",
        "sat_calls",
        "windows",
        "cnf_nodes",
        "classes",
        "redundant",
        "resim",
        "splits",
        "calls/class",
        "sweep(s)",
    ]);
    for (name, golden, _) in &circuits {
        let stacked = aig::stack_over_shared_inputs(golden, &logic_opt::balance(golden), "_b");
        let stacked = aig::stack_over_shared_inputs(&stacked, &logic_opt::rewrite(&stacked), "_c");
        let mut calls_per_class = Vec::new();
        for cex_refinement in [true, false] {
            // One simulation word (64 patterns) leaves plenty of aliased
            // candidates for SAT to refute — the regime where refinement pays.
            let sweeper = SatSweeper::new(SweepOptions {
                cex_refinement,
                sim_words: 1,
                ..SweepOptions::default()
            });
            let t = Instant::now();
            let (classes, stats) = sweeper.find_equivalences(&stacked);
            let sweep_s = t.elapsed().as_secs_f64();
            let proved = classes.classes.len();
            let per_class = stats.sat_calls as f64 / proved.max(1) as f64;
            calls_per_class.push(per_class);
            table.row(vec![
                name.clone(),
                if cex_refinement { "on" } else { "off" }.into(),
                stats.sat_calls.to_string(),
                stats.window_proofs.to_string(),
                stats.cnf_nodes_loaded.to_string(),
                proved.to_string(),
                classes.num_redundant().to_string(),
                stats.resimulations.to_string(),
                stats.cex_splits.to_string(),
                num(per_class, 2),
                num(sweep_s, 3),
            ]);
        }
        run.check(
            "cex-refinement-never-more-calls-per-class",
            name,
            calls_per_class[0] <= calls_per_class[1],
            &[
                ("refined", calls_per_class[0]),
                ("unrefined", calls_per_class[1]),
            ],
        );
    }
    table.print("SAT sweeping with and without counterexample-guided refinement");
}
