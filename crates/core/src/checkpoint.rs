//! The e-graph document: the intermediate JSON DSL of Fig. 7, and the
//! checkpoint of a saturated e-graph. They are one format.
//!
//! A [`FlowCheckpoint`] stores an e-graph — one entry per e-class with its
//! e-nodes (operator plus child class ids) and its parent classes, every
//! circuit signal referred to by a unique id — with its roots and the
//! circuit interface, through the hardened [`egraph::serialize`] layer:
//! exactly the information needed to rebuild either the e-graph or the
//! circuit without parsing S-expressions. Taken from a forward conversion it
//! is the paper's Fig. 7 document of the initial e-graph; taken from the
//! product of the (dominant) saturation phase it is a checkpoint, which can
//! be restored any number of times and re-extracted / re-mapped under
//! different [`crate::ExtractorKind`] / cost-function / delay-target knobs.
//!
//! Nothing in the flow or the job server goes through the document: the
//! server keeps each saturation in memory, in the layout a restore would
//! give it ([`SaturatedState::relayout`], which equals
//! `FlowCheckpoint::capture(state).restore()` without building the
//! document). The document and its JSON text are what leaves the process;
//! their callers are the benchmark ledger's checkpoint probe and the tests.

use crate::convert::ConversionResult;
use crate::flow::SaturatedState;
use crate::lang::BoolLang;
use egraph::serialize::{from_serialized, to_serialized, SerializedEGraph};
use egraph::ParseError;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// A serializable e-graph with its circuit interface: a snapshot of a
/// [`SaturatedState`] or of a [`ConversionResult`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowCheckpoint {
    /// Design name.
    pub name: String,
    /// Primary-input names (`x<i>` in the e-graph corresponds to entry `i`).
    pub inputs: Vec<String>,
    /// Primary-output names, aligned with `egraph.roots`.
    pub outputs: Vec<String>,
    /// The e-graph body (the `"egraph"` object of Fig. 7), with the output
    /// classes as roots.
    pub egraph: SerializedEGraph,
}

impl FlowCheckpoint {
    /// Snapshots the initial e-graph of a forward conversion (Fig. 7).
    pub fn from_conversion(conversion: &ConversionResult) -> Self {
        FlowCheckpoint {
            name: conversion.name.clone(),
            inputs: conversion.input_names.clone(),
            outputs: conversion.output_names.clone(),
            egraph: to_serialized(&conversion.egraph, &conversion.roots),
        }
    }

    /// Snapshots a saturated state.
    pub fn capture(state: &SaturatedState) -> Self {
        FlowCheckpoint {
            name: state.name.clone(),
            inputs: state.input_names.clone(),
            outputs: state.output_names.clone(),
            egraph: to_serialized(&state.egraph, &state.roots),
        }
    }

    /// Rebuilds the state this document was taken from: the e-graph, its
    /// roots and the circuit interface.
    ///
    /// The restored e-graph preserves all class partitions and root
    /// equivalences of the original (pinned by the round-trip proptest), so
    /// every extraction engine sees the same choice space. Saturation
    /// reports and timings are not part of the snapshot: the restored
    /// state's `saturation` is empty, its `stop_reason` is `None`, and its
    /// timings are zero.
    ///
    /// # Errors
    /// Returns a [`ParseError`] if the snapshot fails validation or cannot
    /// be reconstructed.
    pub fn restore(&self) -> Result<SaturatedState, ParseError> {
        let (egraph, _map, roots) = from_serialized::<BoolLang>(&self.egraph)?;
        Ok(SaturatedState {
            egraph,
            roots,
            name: self.name.clone(),
            input_names: self.inputs.clone(),
            output_names: self.outputs.clone(),
            saturation: Vec::new(),
            stop_reason: None,
            conversion_time: Duration::ZERO,
            saturation_time: Duration::ZERO,
        })
    }

    /// Serializes the checkpoint to JSON text.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self)
            .unwrap_or_else(|_| unreachable!("checkpoint serialization cannot fail"))
    }

    /// Parses a checkpoint from JSON text, validating the embedded snapshot.
    ///
    /// # Errors
    /// Returns a [`ParseError`] for malformed JSON or an invalid snapshot.
    pub fn from_json(text: &str) -> Result<Self, ParseError> {
        let parsed: Self = serde_json::from_str(text).map_err(|e| ParseError(e.to_string()))?;
        parsed.egraph.validate()?;
        Ok(parsed)
    }

    /// Number of e-nodes stored in the checkpoint.
    pub fn num_enodes(&self) -> usize {
        self.egraph.num_nodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::{aig_to_egraph, try_selection_to_aig};
    use crate::extract::{CostGraph, ExtractionCost};
    use crate::flow::{extract_network, saturate_network, FlowConfig};

    #[test]
    fn document_roundtrips_through_json() {
        let aig = benchgen::adder(4).aig;
        let conv = aig_to_egraph(&aig);
        let doc = FlowCheckpoint::from_conversion(&conv);
        let json = doc.to_json();
        assert!(json.contains("\"egraph\""));
        assert!(json.contains("\"parents\""));
        let back = FlowCheckpoint::from_json(&json).unwrap();
        assert_eq!(doc, back);
        assert!(FlowCheckpoint::from_json("{").is_err());
    }

    #[test]
    fn reconstructed_egraph_preserves_circuit_function() {
        let aig = benchgen::adder(3).aig;
        let conv = aig_to_egraph(&aig);
        let doc = FlowCheckpoint::from_conversion(&conv);
        let restored = doc.restore().unwrap();
        assert_eq!(restored.egraph.num_classes(), conv.egraph.num_classes());
        let graph = CostGraph::new(&restored.egraph);
        let back = try_selection_to_aig(
            &restored.egraph,
            &graph.bottom_up(ExtractionCost::Size).selection,
            &restored.roots,
            &restored.input_names,
            &restored.output_names,
            &restored.name,
        )
        .unwrap();
        for p in 0..(1usize << aig.num_inputs()) {
            let bits: Vec<bool> = (0..aig.num_inputs()).map(|i| p >> i & 1 == 1).collect();
            assert_eq!(aig.evaluate(&bits), back.evaluate(&bits), "pattern {p}");
        }
    }

    #[test]
    fn enode_counts_match_paper_style_reporting() {
        let aig = benchgen::multiplier(4).aig;
        let conv = aig_to_egraph(&aig);
        let doc = FlowCheckpoint::from_conversion(&conv);
        assert_eq!(doc.num_enodes(), conv.egraph.total_nodes());
        assert!(doc.num_enodes() >= aig.num_ands());
    }

    #[test]
    fn checkpoint_roundtrips_and_reextracts() {
        let aig = benchgen::adder(4).aig;
        let config = FlowConfig::fast();
        let state = saturate_network(&aig, &config);
        let checkpoint = FlowCheckpoint::capture(&state);

        let json = checkpoint.to_json();
        let back = FlowCheckpoint::from_json(&json).unwrap();
        assert_eq!(checkpoint, back);

        let restored = back.restore().unwrap();
        assert_eq!(restored.egraph.num_classes(), state.egraph.num_classes());
        assert_eq!(restored.egraph.total_nodes(), state.egraph.total_nodes());
        assert_eq!(restored.roots.len(), state.roots.len());

        // Extraction from the restored state produces a functioning network.
        let (extracted, _reports) = extract_network(&restored, &config);
        let extracted = extracted.expect("extraction from restored state");
        for p in 0..(1usize << aig.num_inputs()) {
            let bits: Vec<bool> = (0..aig.num_inputs()).map(|i| p >> i & 1 == 1).collect();
            assert_eq!(
                aig.evaluate(&bits),
                extracted.evaluate(&bits),
                "pattern {p}"
            );
        }
    }

    /// Regression for the vendored JSON parser's quadratic string parsing
    /// (85.7 s on a 6.8 MB checkpoint): a checkpoint of this size must parse
    /// back equal well inside the bound, even in a debug build. Parsed on a
    /// helper thread so a quadratic parser fails instead of hanging the suite.
    #[test]
    fn large_checkpoint_roundtrips_through_json() {
        let config = FlowConfig {
            rewrite_iterations: 1,
            ..FlowConfig::fast()
        };
        let state = saturate_network(&benchgen::multiplier(32).aig, &config);
        let checkpoint = FlowCheckpoint::capture(&state);
        assert!(
            checkpoint.num_enodes() >= 20_000,
            "{}",
            checkpoint.num_enodes()
        );
        let json = checkpoint.to_json();
        let (done, parsed) = std::sync::mpsc::channel();
        std::thread::spawn(move || done.send(FlowCheckpoint::from_json(&json)));
        let back = parsed
            .recv_timeout(Duration::from_secs(60))
            .expect("parsing the checkpoint exceeded 60 s");
        assert_eq!(back.unwrap(), checkpoint);
    }

    /// A checkpoint whose snapshot repeats a class key is rejected, as
    /// `SerializedEGraph::from_json` rejects the bare snapshot: decoding into
    /// the class map would silently keep only the last body of the class.
    #[test]
    fn checkpoint_with_a_duplicate_class_key_is_rejected() {
        let state = saturate_network(&benchgen::adder(3).aig, &FlowConfig::fast());
        let checkpoint = FlowCheckpoint::capture(&state);
        let json = checkpoint.to_json();
        let mut classes = checkpoint.egraph.classes.iter();
        let (&key, _) = classes.next().unwrap();
        let (_, other) = classes.next().unwrap();
        let body = serde_json::to_string(&egraph::serialize::SerializedClass {
            id: key,
            ..other.clone()
        })
        .unwrap();
        let at = json.find(&format!("\"{key}\":")).unwrap();
        let mut duplicated = json.clone();
        duplicated.insert_str(at, &format!("\"{key}\": {body}, "));
        let err = FlowCheckpoint::from_json(&duplicated).unwrap_err();
        assert!(err.0.contains("duplicate class key"), "got: {}", err.0);
        assert_eq!(FlowCheckpoint::from_json(&json).unwrap(), checkpoint);
    }

    #[test]
    fn corrupt_checkpoint_is_rejected() {
        let aig = benchgen::adder(3).aig;
        let state = saturate_network(&aig, &FlowConfig::fast());
        let checkpoint = FlowCheckpoint::capture(&state);
        let mut bad = checkpoint.clone();
        bad.egraph.roots.push(99_999);
        assert!(FlowCheckpoint::from_json(&bad.to_json()).is_err());
    }
}
