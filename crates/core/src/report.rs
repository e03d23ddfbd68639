//! Serializable reports of flow runs, for logging experiments and feeding
//! external plotting scripts.

use crate::flow::FlowResult;
use serde::{Deserialize, Serialize};

/// A flat, serializable summary of one flow run on one circuit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

    /// Serializes a list of reports as a JSON array.
    pub fn to_json(reports: &[FlowReport]) -> String {
        serde_json::to_string_pretty(reports)
            .unwrap_or_else(|_| unreachable!("report serialization cannot fail"))
    }

    /// Parses a list of reports from JSON.
    ///
    /// # Errors
    /// Returns the serde error message on malformed input.
    pub fn from_json(text: &str) -> Result<Vec<FlowReport>, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    /// Renders a CSV header matching [`FlowReport::to_csv_row`].
    pub fn csv_header() -> String {
        "circuit,flow,area_um2,delay_ps,levels,gates,runtime_s,conventional_pct,conversion_pct,extraction_pct,verification_pct,egraph_nodes,egraph_classes,verified".to_string()
    }

    /// Renders the report as one CSV row.
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{},{:.3},{:.3},{},{},{:.3},{:.1},{:.1},{:.1},{:.1},{},{},{}",
            self.circuit,
            self.flow,
            self.area_um2,
            self.delay_ps,
            self.levels,
            self.gates,
            self.runtime_s,
            self.conventional_pct,
            self.conversion_pct,
            self.extraction_pct,
            self.verification_pct,
            self.egraph_nodes,
            self.egraph_classes,
            self.verified
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{baseline_flow, FlowConfig};

    #[test]
    fn report_roundtrips_through_json_and_csv() {
        let circuit = benchgen::adder(5).aig;
        let result = baseline_flow(&circuit, &FlowConfig::fast());
        let report = FlowReport::new("baseline", &result);
        assert_eq!(report.circuit, "adder");
        assert!(report.verified);
        let json = FlowReport::to_json(std::slice::from_ref(&report));
        let parsed = FlowReport::from_json(&json).unwrap();
        assert_eq!(parsed, vec![report.clone()]);
        assert!(FlowReport::from_json("not json").is_err());
        let csv = report.to_csv_row();
        assert_eq!(
            csv.split(',').count(),
            FlowReport::csv_header().split(',').count()
        );
        assert!(csv.starts_with("adder,baseline,"));
    }
}
