//! Checkpoint/restore of a saturated e-graph.
//!
//! A [`FlowCheckpoint`] snapshots the product of the (dominant) saturation
//! phase — the e-graph, its roots, and the circuit interface — through the
//! hardened [`egraph::serialize`] layer. One expensive saturation can then
//! be restored any number of times and re-extracted / re-mapped under
//! different [`crate::ExtractorKind`] / cost-function / delay-target knobs,
//! which is what the synthesis server's checkpoint store amortizes.

use crate::flow::SaturatedState;
use crate::lang::BoolLang;
use egraph::serialize::{from_serialized, to_serialized, SerializedEGraph};
use egraph::ParseError;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// A serializable snapshot of a [`SaturatedState`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowCheckpoint {
    /// Design name.
    pub name: String,
    /// Primary-input names (`x<i>` in the e-graph corresponds to entry `i`).
    pub inputs: Vec<String>,
    /// Primary-output names, aligned with `egraph.roots`.
    pub outputs: Vec<String>,
    /// The saturated e-graph, with the output classes as roots.
    pub egraph: SerializedEGraph,
}

impl FlowCheckpoint {
    /// Snapshots a saturated state.
    pub fn capture(state: &SaturatedState) -> Self {
        FlowCheckpoint {
            name: state.name.clone(),
            inputs: state.input_names.clone(),
            outputs: state.output_names.clone(),
            egraph: to_serialized(&state.egraph, &state.roots),
        }
    }

    /// Rebuilds the saturated state this checkpoint was captured from.
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
    use crate::flow::{extract_network, saturate_network, FlowConfig};

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
