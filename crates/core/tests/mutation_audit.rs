//! The audits together: every rule of `audit::RuleId` is owned by a checker
//! in exactly one of the six crates that audit their own structures (`aig`,
//! `egraph`, `sat`, `choices`, `techmap`, `window`). Each rule's mutation
//! test lives beside its checker, in the unit tests of that crate's `audit`
//! module, where it corrupts the structure's private fields directly. This
//! file pins what the entry points run.

/// Pins how many checkers each audit entry point runs at each level, on
/// clean artifacts built from one benchgen circuit through the public API:
/// `Off` runs nothing, `PhaseBoundaries` every cheap checker, `Paranoid`
/// adds the simulation-based choice-member equivalence.
#[test]
fn audit_entry_points_count_their_checks() {
    use audit::{AuditLevel, AuditReport};
    use choices::{audit_choices, egraph_to_choices, ChoiceConfig};
    use egraph::{audit_egraph, Runner};
    use emorphic::{aig_to_egraph, all_rules};
    use sat::dimacs::CnfFormula;
    use sat::{audit_solver, ClauseSink, Lit as SatLit};
    use techmap::cell::map_to_cells;
    use techmap::library::asap7_like;
    use techmap::{audit_netlist, MapOptions};
    use window::{audit_partition, audit_stitched, partition, stitch, WindowOptions};

    let circuit = benchgen::adder(4).aig;

    let conversion = aig_to_egraph(&circuit);
    let runner = Runner::with_egraph(conversion.egraph)
        .with_iter_limit(2)
        .with_node_limit(4_000)
        .run(&all_rules());
    let egraph = runner.egraph;
    let roots: Vec<_> = conversion.roots.iter().map(|&r| egraph.find(r)).collect();
    let (network, _) = egraph_to_choices(
        &egraph,
        &roots,
        &conversion.input_names,
        &conversion.output_names,
        &conversion.name,
        &ChoiceConfig::default(),
    )
    .expect("choice export");

    let netlist = map_to_cells(&circuit, &asap7_like(), &MapOptions::default());

    let mut cnf = CnfFormula::default();
    let inputs: Vec<SatLit> = (0..circuit.num_inputs())
        .map(|_| SatLit::pos(cnf.new_var()))
        .collect();
    let image = cec::AigCnf::encode(&mut cnf, &circuit, Some(&inputs));
    let mut solver = cnf.to_solver();
    let _ = solver.solve_with_assumptions(&image.output_lits[..1]);

    let part = partition(&circuit, &WindowOptions::default()).expect("partition");
    let stitched = stitch(&circuit, &part, &[]).expect("stitch");

    type Audit<'a> = Box<dyn Fn(AuditLevel) -> AuditReport + 'a>;
    let entry_points: [(&str, Audit, [usize; 3]); 8] = [
        (
            "audit_aig",
            Box::new(|l| aig::audit_aig(&circuit, l)),
            [0, 6, 6],
        ),
        (
            "audit_aig_dag_only",
            Box::new(|l| aig::audit_aig_dag_only(&circuit, l)),
            [0, 4, 4],
        ),
        (
            "audit_egraph",
            Box::new(|l| audit_egraph(&egraph, l)),
            [0, 9, 9],
        ),
        (
            "audit_choices",
            Box::new(|l| audit_choices(&network, l)),
            [0, 8, 9],
        ),
        (
            "audit_netlist",
            Box::new(|l| audit_netlist(&circuit, &netlist, l)),
            [0, 3, 3],
        ),
        (
            "audit_solver",
            Box::new(|l| audit_solver(&solver, l)),
            [0, 4, 4],
        ),
        (
            "audit_partition",
            Box::new(|l| audit_partition(&circuit, &part, l)),
            [0, 2, 2],
        ),
        (
            "audit_stitched",
            Box::new(|l| audit_stitched(&circuit, &part, &stitched, l)),
            [0, 2, 2],
        ),
    ];
    let levels = [
        AuditLevel::Off,
        AuditLevel::PhaseBoundaries,
        AuditLevel::Paranoid,
    ];
    for (name, audit, counts) in &entry_points {
        for (level, want) in levels.into_iter().zip(counts) {
            let report = audit(level);
            assert!(report.is_clean(), "{name} at {level:?}:\n{report}");
            assert_eq!(report.checks_run, *want, "{name} at {level:?}");
        }
    }
}
