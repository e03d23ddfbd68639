//! The `repro` runner: every table, figure and gate of the evaluation as one
//! experiment function over one shared [`Run`].
//!
//! `repro <experiment|all> [--smoke]` (see [`EXPERIMENTS`] for the index)
//! dispatches here. The pieces every experiment shares are written once in
//! this file: scale and circuit selection ([`parse_scale`], [`Run::suite`],
//! [`Run::scaling_suite`], [`flow_config_for`]), the table printer
//! ([`Table`]), the named-gate counter that sets the exit code
//! ([`Run::check`]) and the result writer ([`Run::to_json`], written to
//! `BENCH_repro.json`). [`esyn`] is the E-Syn S-expression conversion
//! baseline Table III compares the direct DAG-to-DAG conversion against; the
//! table is its only caller.

#![warn(missing_docs)]

pub mod esyn;
mod gates;
mod paper;
mod sat_gate;

use benchgen::{BenchCircuit, SuiteScale};
use emorphic::extract::sa::SaOptions;
use emorphic::flow::{
    emorphic_map_flow, saturate_network, FlowConfig, FlowResult, MapFlowConfig, MapFlowResult,
    SaturatedState,
};
use serde::Serialize;
use std::collections::BTreeMap;

/// One experiment of the runner: its subcommand name, what it reproduces or
/// gates, and the function that runs it.
pub struct Experiment {
    /// Subcommand name.
    pub name: &'static str,
    /// One-line description (paper reference or gated contract).
    pub what: &'static str,
    run: fn(&mut Run),
}

/// Every experiment `repro` accepts, in `repro all` order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table2",
        what: "Table II: QoR and runtime, baseline vs E-morphic",
        run: paper::table2,
    },
    Experiment {
        name: "table3",
        what: "Table III: circuit <-> e-graph conversion, E-Syn vs direct DAG-to-DAG",
        run: paper::table3,
    },
    Experiment {
        name: "fig1",
        what: "Fig. 1: independent passes plateau, E-morphic goes below",
        run: paper::fig1,
    },
    Experiment {
        name: "fig9",
        what: "Fig. 9: runtime breakdown of the E-morphic flow",
        run: paper::fig9,
    },
    Experiment {
        name: "ablation",
        what: "ablations: rewrite iterations, pruning, SA vs greedy, chains",
        run: paper::ablation,
    },
    Experiment {
        name: "choices",
        what: "gate: choice-aware mapped area never worse than choice-free, CEC",
        run: gates::choices,
    },
    Experiment {
        name: "delay",
        what: "gate: delay-first choice mapping never slower, slack >= 0, CEC",
        run: gates::delay,
    },
    Experiment {
        name: "extract",
        what: "gate: portfolio mapped area <= single-engine SA, CEC per engine",
        run: gates::extract,
    },
    Experiment {
        name: "sat",
        what: "gate: CDCL == reference oracle, never more conflicts/time; CEX sweeps",
        run: sat_gate::sat,
    },
    Experiment {
        name: "window",
        what: "gate: windowed saturation proved, area <= monolithic, thread identity",
        run: gates::window,
    },
    Experiment {
        name: "server",
        what: "gate: served netlists re-proved, warm >= 10x cold, checkpoint restore",
        run: gates::server,
    },
    Experiment {
        name: "audit",
        what: "gate: zero audit errors over parsed inputs, flows and solver state",
        run: gates::audit,
    },
];

/// A command line or environment the runner rejects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UsageError {
    /// `EMORPHIC_SCALE` holds something other than a scale name.
    UnknownScale(String),
    /// The first argument names no experiment.
    UnknownExperiment(String),
    /// An argument after the experiment is not a known flag.
    UnknownFlag(String),
    /// No experiment was named.
    MissingExperiment,
}

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        match self {
            UsageError::UnknownScale(value) => write!(
                f,
                "unknown EMORPHIC_SCALE `{value}` (valid: tiny, small, default; unset = small)"
            ),
            UsageError::UnknownExperiment(name) => write!(
                f,
                "unknown experiment `{name}` (valid: all, {})",
                names.join(", ")
            ),
            UsageError::UnknownFlag(flag) => {
                write!(f, "unknown flag `{flag}` (valid: --smoke, --paranoid)")
            }
            UsageError::MissingExperiment => write!(
                f,
                "usage: repro <experiment|all> [--smoke] [--paranoid]\nexperiments: {}",
                names.join(", ")
            ),
        }
    }
}

impl std::error::Error for UsageError {}

/// Parses the value of `EMORPHIC_SCALE`; unset or empty means `small`, so
/// the whole harness finishes in minutes on a laptop.
///
/// # Errors
/// [`UsageError::UnknownScale`] for anything but `tiny`, `small`, `default`
/// (or its alias `full`).
pub fn parse_scale(value: Option<&str>) -> Result<SuiteScale, UsageError> {
    match value.unwrap_or_default().to_lowercase().as_str() {
        "tiny" => Ok(SuiteScale::Tiny),
        "" | "small" => Ok(SuiteScale::Small),
        "default" | "full" => Ok(SuiteScale::Default),
        other => Err(UsageError::UnknownScale(other.to_string())),
    }
}

/// Returns a flow configuration sized to the given suite scale.
pub fn flow_config_for(scale: SuiteScale) -> FlowConfig {
    match scale {
        SuiteScale::Tiny => FlowConfig::fast(),
        SuiteScale::Small => FlowConfig {
            rounds: 3,
            rewrite_iterations: 4,
            node_limit: 60_000,
            match_limit: 1_000,
            sa: SaOptions {
                iterations: 3,
                threads: 2,
                ..SaOptions::default()
            },
            ..FlowConfig::paper()
        },
        SuiteScale::Default => FlowConfig::paper(),
    }
}

/// A bare saturated e-graph of `circuit` under explicit limits, for the
/// experiments that compare extraction policies on one shared e-graph.
pub fn saturated(
    circuit: &aig::Aig,
    iterations: usize,
    node_limit: usize,
    match_limit: usize,
) -> SaturatedState {
    let config = FlowConfig {
        rewrite_iterations: iterations,
        node_limit,
        match_limit,
        ..FlowConfig::fast()
    };
    saturate_network(circuit, &config)
}

/// Geometric mean, with zero entries clamped to a small epsilon.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let logs: Vec<f64> = values.into_iter().map(|v| v.max(1e-9).ln()).collect();
    (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp()
}

/// Formats a float cell with `digits` decimals.
pub fn num(value: f64, digits: usize) -> String {
    format!("{value:.digits$}")
}

/// The one table printer: first column left-aligned, the rest right-aligned,
/// widths fitted to the cells.
#[derive(Debug)]
pub struct Table {
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            rows: vec![header.iter().map(|h| h.to_string()).collect()],
        }
    }

    /// Appends one row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Prints the table under `title`.
    pub fn print(&self, title: &str) {
        println!("\n== {title} ==");
        let columns = self.rows.iter().map(Vec::len).max().unwrap_or(0);
        let widths: Vec<usize> = (0..columns)
            .map(|c| {
                let cells = self.rows.iter().filter_map(|row| row.get(c));
                cells.map(|cell| cell.chars().count()).max().unwrap_or(0)
            })
            .collect();
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(c, cell)| match c {
                    0 => format!("{cell:<width$}", width = widths[c]),
                    _ => format!("{cell:>width$}", width = widths[c]),
                })
                .collect();
            println!("{}", line.join("  ").trim_end());
        }
    }
}

/// A flat, serializable summary of one flow run on one circuit: the flow
/// rows of `BENCH_repro.json`.
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
    /// Builds the row of `flow` on the suite circuit named `circuit`.
    pub fn new(flow: &str, circuit: &str, result: &FlowResult) -> Self {
        let (conventional_pct, conversion_pct, extraction_pct, verification_pct) =
            result.breakdown.percentages();
        FlowReport {
            circuit: circuit.to_string(),
            flow: flow.to_string(),
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

/// One check of a named gate: the generic result row of every gate
/// experiment (what `BENCH_{sat,extract,window,server}.json` used to hold in
/// four private schemas).
#[derive(Debug, Clone, Serialize)]
pub struct GateRow {
    /// Experiment the gate belongs to.
    pub experiment: String,
    /// Gate name (the contract being asserted).
    pub gate: String,
    /// Circuit (and configuration, as `circuit/config`) the check ran on.
    pub circuit: String,
    /// Whether the contract held.
    pub passed: bool,
    /// The measured values the check compared, by name.
    pub values: BTreeMap<String, f64>,
}

/// The shared state of one `repro` invocation: the parsed inputs, and the
/// result rows every experiment appends to.
#[derive(Debug)]
pub struct Run {
    /// Circuit sizes (`EMORPHIC_SCALE`).
    pub scale: SuiteScale,
    /// `--smoke`: reduced circuit sets; timing-ratio gates are not enforced.
    pub smoke: bool,
    /// `--paranoid`: the `audit` experiment runs at `AuditLevel::Paranoid`.
    pub paranoid: bool,
    experiment: &'static str,
    /// Flow-shaped result rows.
    pub flows: Vec<FlowReport>,
    /// Gate checks, in the order they ran.
    pub gates: Vec<GateRow>,
}

/// The `BENCH_repro.json` schema.
#[derive(Serialize)]
struct Document {
    scale: String,
    smoke: bool,
    flows: Vec<FlowReport>,
    gates: Vec<GateRow>,
}

impl Run {
    /// A run with no rows yet.
    pub fn new(scale: SuiteScale, smoke: bool, paranoid: bool) -> Self {
        Run {
            scale,
            smoke,
            paranoid,
            experiment: "",
            flows: Vec::new(),
            gates: Vec::new(),
        }
    }

    /// The EPFL-like suite at the run's scale (two small circuits in smoke
    /// mode).
    pub fn suite(&self) -> Vec<BenchCircuit> {
        if self.smoke {
            vec![benchgen::adder(8), benchgen::multiplier(4)]
        } else {
            benchgen::epfl_like_suite(self.scale)
        }
    }

    /// The scaling-class circuits of the windowed and server experiments
    /// (three small ones in smoke mode).
    pub fn scaling_suite(&self) -> Vec<BenchCircuit> {
        if self.smoke {
            let named = |mut circuit: BenchCircuit, name: &str| {
                circuit.name = name.into();
                circuit
            };
            vec![
                named(benchgen::multiplier(4), "multiplier4"),
                named(benchgen::adder(16), "adder16"),
                benchgen::crossbar(4, 2),
            ]
        } else {
            benchgen::scaling_suite(self.scale)
        }
    }

    /// The flow configuration of the run's scale.
    pub fn flow_config(&self) -> FlowConfig {
        flow_config_for(self.scale)
    }

    /// The map-flow configuration of the run's scale.
    pub fn map_config(&self) -> MapFlowConfig {
        MapFlowConfig {
            flow: self.flow_config(),
            ..MapFlowConfig::fast()
        }
    }

    /// Records one check of the named gate of the current experiment. A
    /// failed check is reported on stderr at once; [`Run::gate_lines`]
    /// gives the per-gate verdicts and [`Run::exit_status`] turns any
    /// failure into a non-zero exit.
    pub fn check(&mut self, gate: &str, circuit: &str, passed: bool, values: &[(&str, f64)]) {
        let row = GateRow {
            experiment: self.experiment.to_string(),
            gate: gate.to_string(),
            circuit: circuit.to_string(),
            passed,
            values: values.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        };
        if !passed {
            eprintln!("VIOLATION {}", describe(&row));
        }
        self.gates.push(row);
    }

    /// Runs the map flow, recording a `flow-completes` check; `None` when
    /// the flow failed.
    pub fn map_flow(
        &mut self,
        circuit: &str,
        aig: &aig::Aig,
        config: &MapFlowConfig,
    ) -> Option<MapFlowResult> {
        let result = emorphic_map_flow(aig, config);
        if let Err(e) = &result {
            eprintln!("{circuit}: map flow failed: {e}");
        }
        self.check("flow-completes", circuit, result.is_ok(), &[]);
        result.ok()
    }

    /// One verdict line per named gate of `experiment`, in first-check order.
    pub fn gate_lines(&self, experiment: &str) -> Vec<String> {
        let rows = || self.gates.iter().filter(|row| row.experiment == experiment);
        let mut names: Vec<&str> = Vec::new();
        for row in rows() {
            if !names.contains(&row.gate.as_str()) {
                names.push(&row.gate);
            }
        }
        let verdict = |gate: &str| {
            let checks = rows().filter(|row| row.gate == gate);
            let failed: Vec<String> = checks
                .clone()
                .filter(|row| !row.passed)
                .map(describe)
                .collect();
            if failed.is_empty() {
                format!("gate {experiment}/{gate}: pass ({} checks)", checks.count())
            } else {
                format!(
                    "gate {experiment}/{gate}: VIOLATION in {} of {} checks: {}",
                    failed.len(),
                    checks.count(),
                    failed.join("; ")
                )
            }
        };
        names.into_iter().map(verdict).collect()
    }

    /// Number of failed checks so far.
    pub fn violations(&self) -> usize {
        self.gates.iter().filter(|row| !row.passed).count()
    }

    /// The process exit status: 1 if any gate check failed, else 0.
    pub fn exit_status(&self) -> u8 {
        u8::from(self.violations() > 0)
    }

    /// The `BENCH_repro.json` document.
    pub fn to_json(&self) -> String {
        let document = Document {
            scale: format!("{:?}", self.scale).to_lowercase(),
            smoke: self.smoke,
            flows: self.flows.clone(),
            gates: self.gates.clone(),
        };
        serde_json::to_string_pretty(&document).expect("result rows serialize")
    }
}

/// `experiment/gate circuit [name=value ...]` for messages.
fn describe(row: &GateRow) -> String {
    let values: Vec<String> = row.values.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!(
        "{}/{} {} [{}]",
        row.experiment,
        row.gate,
        row.circuit,
        values.join(" ")
    )
}

/// Resolves the experiment argument: `all`, or one name of [`EXPERIMENTS`].
///
/// # Errors
/// [`UsageError::UnknownExperiment`] listing the valid names.
pub fn select(name: &str) -> Result<Vec<&'static Experiment>, UsageError> {
    if name == "all" {
        return Ok(EXPERIMENTS.iter().collect());
    }
    EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .map(|e| vec![e])
        .ok_or_else(|| UsageError::UnknownExperiment(name.to_string()))
}

/// Runs the selected experiments on `run`, printing each one's gate verdicts
/// after it.
pub fn run_experiments(run: &mut Run, experiments: &[&'static Experiment]) {
    for experiment in experiments {
        println!("\n#### {} -- {}", experiment.name, experiment.what);
        run.experiment = experiment.name;
        (experiment.run)(run);
        for line in run.gate_lines(experiment.name) {
            println!("{line}");
        }
    }
}

/// The `repro` entry point: parses `args` (without the program name) and the
/// `EMORPHIC_SCALE` value, runs the experiments, writes `BENCH_repro.json`
/// and returns the finished run.
///
/// # Errors
/// A [`UsageError`] before anything runs.
pub fn repro(args: &[String], scale: Option<&str>) -> Result<Run, UsageError> {
    let scale = parse_scale(scale)?;
    let (name, flags) = args.split_first().ok_or(UsageError::MissingExperiment)?;
    let experiments = select(name)?;
    if let Some(flag) = flags.iter().find(|f| *f != "--smoke" && *f != "--paranoid") {
        return Err(UsageError::UnknownFlag(flag.clone()));
    }
    let has = |flag: &str| flags.iter().any(|f| f == flag);
    let mut run = Run::new(scale, has("--smoke"), has("--paranoid"));
    println!("repro {name}: scale {scale:?}, smoke {}", run.smoke);
    run_experiments(&mut run, &experiments);
    std::fs::write("BENCH_repro.json", run.to_json()).expect("write BENCH_repro.json");
    println!(
        "\nrepro: {} experiment(s), {} gate check(s), {} violation(s); wrote BENCH_repro.json",
        experiments.len(),
        run.gates.len(),
        run.violations()
    );
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_defaults_to_small() {
        assert_eq!(parse_scale(None), Ok(SuiteScale::Small));
        assert_eq!(parse_scale(Some("TINY")), Ok(SuiteScale::Tiny));
        assert_eq!(parse_scale(Some("full")), Ok(SuiteScale::Default));
        assert_eq!(flow_config_for(SuiteScale::Tiny).rounds, 2);
        assert_eq!(flow_config_for(SuiteScale::Default).rounds, 4);
    }

    #[test]
    fn unknown_scale_and_experiment_are_typed_errors_listing_the_valid_values() {
        let err = parse_scale(Some("tinny")).unwrap_err();
        assert_eq!(err, UsageError::UnknownScale("tinny".into()));
        for valid in ["tiny", "small", "default"] {
            assert!(err.to_string().contains(valid), "{err}");
        }
        // The scale is rejected before any experiment runs.
        assert_eq!(
            repro(&["table3".into()], Some("huge")).unwrap_err(),
            UsageError::UnknownScale("huge".into())
        );

        let err = repro(&["table9".into()], Some("tiny")).unwrap_err();
        assert_eq!(err, UsageError::UnknownExperiment("table9".into()));
        for experiment in EXPERIMENTS {
            assert!(err.to_string().contains(experiment.name), "{err}");
        }
        assert_eq!(
            repro(&[], Some("tiny")).unwrap_err(),
            UsageError::MissingExperiment
        );
        assert_eq!(
            repro(&["fig1".into(), "--quick".into()], Some("tiny")).unwrap_err(),
            UsageError::UnknownFlag("--quick".into())
        );
    }

    #[test]
    fn one_failed_check_fails_the_run_and_names_gate_and_circuit() {
        let mut run = Run::new(SuiteScale::Tiny, true, false);
        run.experiment = "extract";
        run.check("portfolio-area<=sa", "adder", true, &[]);
        assert_eq!(run.exit_status(), 0);
        run.check(
            "portfolio-area<=sa",
            "multiplier",
            false,
            &[("portfolio", 9.5), ("sa", 8.25)],
        );
        run.check("cec", "multiplier/sa", true, &[]);
        assert_eq!(run.violations(), 1);
        assert_eq!(run.exit_status(), 1);
        let lines = run.gate_lines("extract");
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].contains("VIOLATION in 1 of 2 checks"), "{lines:?}");
        assert!(
            lines[0].contains("extract/portfolio-area<=sa multiplier"),
            "{lines:?}"
        );
        assert!(lines[0].contains("portfolio=9.5 sa=8.25"), "{lines:?}");
        assert_eq!(lines[1], "gate extract/cec: pass (1 checks)");
        assert!(run.to_json().contains("\"portfolio\": 9.5"));
    }

    #[test]
    fn every_accepted_name_dispatches_to_exactly_one_experiment() {
        let expected = [
            "table2", "table3", "fig1", "fig9", "ablation", "choices", "delay", "extract", "sat",
            "window", "server", "audit",
        ];
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(names, expected);
        for name in expected {
            let selected = select(name).unwrap();
            assert_eq!(selected.len(), 1);
            assert_eq!(selected[0].name, name);
        }
        assert_eq!(select("all").unwrap().len(), expected.len());
        assert!(select("ledger").is_err());
    }

    #[test]
    fn the_two_cheapest_experiments_run_in_process_and_produce_rows() {
        let mut run = Run::new(SuiteScale::Tiny, false, false);
        let experiments: Vec<&Experiment> = ["table3", "fig1"]
            .iter()
            .flat_map(|name| select(name).unwrap())
            .collect();
        run_experiments(&mut run, &experiments);
        // Table III: one conversion round-trip check per suite circuit.
        let conversions: Vec<&GateRow> = run
            .gates
            .iter()
            .filter(|row| row.experiment == "table3")
            .collect();
        assert_eq!(conversions.len(), run.suite().len());
        assert!(conversions.iter().all(|row| row.values["enodes"] > 0.0));
        // Fig. 1: the E-morphic point is a flow-shaped row.
        assert_eq!(run.flows.len(), 1);
        assert_eq!(run.flows[0].flow, "fig1");
        assert!(run.flows[0].verified);
        assert_eq!(run.exit_status(), 0);
    }
}
