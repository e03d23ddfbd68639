//! Serializable reports of flow runs: the flow rows the `repro` runner
//! writes into `BENCH_repro.json`.

use crate::flow::FlowResult;
use serde::Serialize;

/// A flat, serializable summary of one flow run on one circuit.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FlowReport {
    /// Circuit name.
    pub circuit: String,
    /// Flow label (`"baseline"`, `"emorphic"`, or an experiment's own, e.g. `"fig1"`).
    pub flow: String,
    /// Post-mapping area in µm².
    pub area_um2: f64,
    /// Post-mapping delay in ps.
    pub delay_ps: f64,
    /// Logic levels of the mapped netlist.
    pub levels: u32,
    /// Number of mapped gates.
    pub gates: usize,
    /// Total runtime in seconds.
    pub runtime_s: f64,
    /// Share of the runtime spent in the conventional flow (percent).
    pub conventional_pct: f64,
    /// Share spent in e-graph conversion (percent).
    pub conversion_pct: f64,
    /// Share spent in SA extraction (percent).
    pub extraction_pct: f64,
    /// Share spent in CEC verification (percent; 0 for the baseline flow).
    pub verification_pct: f64,
    /// Number of e-nodes after rewriting (0 for the baseline flow).
    pub egraph_nodes: usize,
    /// Number of e-classes after rewriting (0 for the baseline flow).
    pub egraph_classes: usize,
    /// Whether the result was verified equivalent to the input.
    pub verified: bool,
}

impl FlowReport {
    /// Builds a report from a flow result.
    pub fn new(flow: impl Into<String>, result: &FlowResult) -> Self {
        let (conventional_pct, conversion_pct, extraction_pct, verification_pct) =
            result.breakdown.percentages();
        FlowReport {
            circuit: result.qor.name.clone(),
            flow: flow.into(),
            area_um2: result.qor.area_um2,
            delay_ps: result.qor.delay_ps,
            levels: result.qor.levels,
            gates: result.qor.gates,
            runtime_s: result.runtime.as_secs_f64(),
            conventional_pct,
            conversion_pct,
            extraction_pct,
            verification_pct,
            egraph_nodes: result.egraph_nodes,
            egraph_classes: result.egraph_classes,
            verified: result.verified,
        }
    }
}
