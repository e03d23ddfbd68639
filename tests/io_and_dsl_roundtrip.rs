//! Integration tests for the exchange formats: ASCII AIGER, the ABC-style
//! equation format, and the Fig. 7 intermediate DSL, applied to the
//! generated benchmark circuits.

use aig::io::{read_aiger, read_eqn, write_aiger, write_eqn};
use aig::Simulator;
use emorphic::aig_to_egraph;
use emorphic::FlowCheckpoint;

fn same_function(a: &aig::Aig, b: &aig::Aig) -> bool {
    assert_eq!(a.num_inputs(), b.num_inputs());
    let sa = Simulator::random(a, 8, 1234);
    let sb = Simulator::random(b, 8, 1234);
    sa.output_signatures(a) == sb.output_signatures(b)
}

#[test]
fn aiger_roundtrip_on_benchmark_suite() {
    for circuit in benchgen::epfl_like_suite(benchgen::SuiteScale::Tiny) {
        let text = write_aiger(&circuit.aig);
        let back = read_aiger(&text).unwrap_or_else(|e| panic!("{}: {e}", circuit.name));
        assert_eq!(
            back.num_inputs(),
            circuit.aig.num_inputs(),
            "{}",
            circuit.name
        );
        assert_eq!(
            back.num_outputs(),
            circuit.aig.num_outputs(),
            "{}",
            circuit.name
        );
        assert!(same_function(&circuit.aig, &back), "{}", circuit.name);
    }
}

#[test]
fn eqn_roundtrip_on_benchmark_suite() {
    for circuit in [
        benchgen::adder(8),
        benchgen::arbiter(8),
        benchgen::mem_ctrl(5),
    ] {
        let text = write_eqn(&circuit.aig);
        let back = read_eqn(&text).unwrap_or_else(|e| panic!("{}: {e}", circuit.name));
        assert!(same_function(&circuit.aig, &back), "{}", circuit.name);
        assert_eq!(back.output_names(), circuit.aig.output_names());
    }
}

#[test]
fn dsl_document_roundtrip_on_benchmark_circuit() {
    let circuit = benchgen::multiplier(4).aig;
    let conversion = aig_to_egraph(&circuit);
    let doc = FlowCheckpoint::from_conversion(&conversion);
    let json = doc.to_json();
    let parsed = FlowCheckpoint::from_json(&json).expect("valid JSON");
    assert_eq!(parsed, doc);
    let restored = parsed.restore().expect("reconstructible");
    assert_eq!(
        restored.egraph.num_classes(),
        conversion.egraph.num_classes()
    );
    assert_eq!(restored.roots.len(), circuit.num_outputs());
}

#[test]
fn formats_compose_aiger_to_eqn_and_back() {
    let circuit = benchgen::adder(6).aig;
    let aiger_text = write_aiger(&circuit);
    let from_aiger = read_aiger(&aiger_text).unwrap();
    let eqn_text = write_eqn(&from_aiger);
    let from_eqn = read_eqn(&eqn_text).unwrap();
    assert!(same_function(&circuit, &from_eqn));
}
