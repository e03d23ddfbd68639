//! End-to-end synthesis flows (paper Section IV).
//!
//! * [`baseline_flow`] — the delay-oriented reference flow
//!   `(st; if -g -K 6 -C 8)(st; dch; map) × 4` built from the workspace
//!   substrates: SOP balancing, structural choices via SAT sweeping, and
//!   standard-cell mapping against the built-in 7-nm-style library.
//! * [`emorphic_flow`] — the same flow with e-graph-based resynthesis
//!   inserted before the final mapping round: DAG-to-DAG conversion, a small
//!   number of Table-I rewriting iterations, and parallel simulated-annealing
//!   extraction guided by the technology mapper (the paper's
//!   quality-prioritized mode).
//!
//! Every driver verifies with one checker, the SAT-sweeping
//! [`check_equivalence_swept`] (the role of the paper's `cec`); only what it
//! checks against differs. [`emorphic_flow`] checks the resynthesized network
//! against the *prepared* network it was saturated from, before the final
//! `st; dch; map` round. The job server checks the resynthesized network
//! against the circuit it was submitted, also before that round.
//! [`emorphic_map_flow`] checks the mapped netlist against its input. See
//! [`verify_and_map`].
//!
//! Both flows record a wall-clock breakdown (conventional optimization,
//! e-graph conversion, SA extraction) used to regenerate Fig. 9.
//!
//! Each stage is written once; every flow, window and server job runs these:
//!
//! * **saturate** — `saturate`: the only `Runner` recipe (limits, scheduler,
//!   threads, deadline, interrupt), behind [`saturate_network`], the
//!   monolithic map path and every window.
//! * **parallelism** — [`egraph::pool::for_each_indexed`]: search shards,
//!   windows, annealing chains; the thread-count
//!   contract is stated there.
//! * **windows** — [`saturate_windows`]: partition, carve the node limit,
//!   saturate per window on the pool, stitch. Only [`emorphic_map_flow`]
//!   runs windows; [`emorphic_flow`] always builds one e-graph.
//! * **extract** — `run_extraction`: one `match` from [`ExtractorKind`] to
//!   engine, run through [`ExtractionEngine::extract_with_reports`].

use crate::convert::aig_to_egraph;
use crate::extract::sa::{SaEngine, SaOptions};
use crate::extract::{
    BottomUpEngine, EngineReport, ExtractBudget, ExtractError, Extraction, ExtractionCost,
    ExtractionEngine, ExtractorKind, GlobalGreedyDagEngine,
};
use crate::lang::BoolLang;
use crate::rules::all_rules;
use crate::windowed::{saturate_windows, WindowReport};
use aig::{audit_aig_dag_only, Aig};
use audit::{AuditLevel, AuditReport};
/// The one verifier of every driver: [`emorphic_flow`] and the job server
/// hand it to [`verify_and_map`], [`emorphic_map_flow`] calls it on the
/// mapped netlist.
pub use cec::check_equivalence_swept;
use cec::{CecOptions, CecResult};
use choices::{
    audit_choices, egraph_to_choices_with_selection, BoolNode, ChoiceConfig, ChoiceCost,
    ChoiceError, ClassSelection, ExportStats,
};
use egraph::{audit_egraph, EGraph, Id, Rewrite, Runner, Scheduler};
use logic_opt::dch_like;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};
use techmap::cell::{map_to_cells, try_map_to_cells, try_map_to_cells_with_choices, Netlist};
use techmap::library::{asap7_like, CellLibrary};
use techmap::{audit_netlist, sop::sop_balance, MapError, MapOptions, Qor};
use window::{audit_partition, audit_stitched, WindowError, WindowOptions};

/// Configuration of the synthesis flows. Two configurations are equal when
/// every knob holds the same value, which is the comparison the job server
/// keys its result cache on.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowConfig {
    /// Number of `(st; if -g)(st; dch; map)` rounds (4 in the paper). SOP
    /// balancing always runs as `if -g -K 6 -C 8` and `dch` as
    /// [`dch_like`].
    pub rounds: usize,
    /// Standard-cell mapping options.
    pub map_options: MapOptions,
    /// The standard-cell library (also the one SA maps its candidates to).
    pub library: CellLibrary,
    /// Number of e-graph rewriting iterations (5 in the paper).
    pub rewrite_iterations: usize,
    /// E-node limit for the rewriting phase.
    pub node_limit: usize,
    /// Per-rule match limit per iteration (back-off scheduling). The budget
    /// is split across each rule's candidate-class shards, so with parallel
    /// search every thread count sees the same per-shard budgets.
    pub match_limit: usize,
    /// Worker threads for the saturation search phase, or for racing whole
    /// windows on the windowed map path (1 = serial). Only wall-clock time
    /// depends on it: see [`egraph::pool`] for the contract and its one
    /// exception, a wall-clock limit that fires mid-phase.
    pub search_threads: usize,
    /// Simulated-annealing extraction options.
    pub sa: SaOptions,
    /// Which extraction engine pulls the resynthesized design out of the
    /// saturated e-graph (see [`ExtractorKind`]).
    pub extractor: ExtractorKind,
    /// Work budget handed to the extraction engine.
    pub extract_budget: ExtractBudget,
    /// Verify the result with [`check_equivalence_swept`]: the resynthesized
    /// network against the prepared one in [`emorphic_flow`], against the
    /// submitted circuit in the job server, the mapped netlist against the
    /// input in [`emorphic_map_flow`].
    pub verify: bool,
    /// CEC options used for verification: the conflict budget of the
    /// checker's final output queries. It must stay bounded: a miter the
    /// sweep does not collapse is left to monolithic CDCL, and an unlimited
    /// budget on, say, a multiplier wedges the whole flow.
    pub cec: CecOptions,
    /// Sweep options of the verifier, budgeted in lockstep with
    /// [`FlowConfig::cec`] so the verification tail has one bound. The
    /// `dch` step of every conventional round does *not* read this field: it
    /// sweeps under `SweepOptions::default` (see [`dch_like`]), at `cec`'s
    /// default conflict budget (10 000) whatever this one says.
    pub sweep: cec::SweepOptions,
    /// How much invariant auditing the flow performs at phase boundaries
    /// (saturate, extract, choice-export, map): [`AuditLevel::Off`] costs
    /// nothing, `PhaseBoundaries` runs the cheap structural checkers, and
    /// `Paranoid` adds the exhaustive-simulation ones. Findings surface in
    /// the flow result's `audit` report instead of aborting the flow.
    pub audit_level: AuditLevel,
    /// Wall-clock limit for the saturation phase (`None` keeps the runner's
    /// default). The job server maps per-job budgets onto this knob; like
    /// any wall-clock limit, a run that actually hits it stops at a
    /// timing-dependent point. On the windowed map path it is a deadline for
    /// the whole phase: each window gets the time left, later windows are
    /// skipped.
    pub saturation_time_limit: Option<Duration>,
    /// When set, [`emorphic_map_flow`] saturates windowed instead of
    /// monolithic: the design is carved into reconvergence-bounded windows,
    /// each window is saturated as an independent e-graph on the worker
    /// pool, and the per-window choice spaces are stitched into one network
    /// ([`saturate_windows`]). [`emorphic_flow`] has no windowed path: with
    /// this set it runs monolithic and reports so in
    /// [`FlowResult::window`]. `None` keeps the single-e-graph path.
    pub partitioning: Option<WindowOptions>,
}

impl FlowConfig {
    /// The paper's experimental configuration (Section IV-A), with the SA
    /// extractor.
    pub fn paper() -> Self {
        FlowConfig {
            rounds: 4,
            map_options: MapOptions::default(),
            library: asap7_like(),
            rewrite_iterations: 5,
            node_limit: 200_000,
            match_limit: 2_000,
            search_threads: 4,
            sa: SaOptions::default(),
            extractor: ExtractorKind::Sa,
            extract_budget: ExtractBudget::unlimited(),
            verify: true,
            cec: CecOptions {
                conflict_budget: Some(100_000),
                ..CecOptions::default()
            },
            sweep: cec::SweepOptions {
                conflict_budget: Some(100_000),
                ..cec::SweepOptions::default()
            },
            audit_level: AuditLevel::Off,
            saturation_time_limit: None,
            partitioning: None,
        }
    }

    /// A reduced configuration for tests, examples and CI.
    pub fn fast() -> Self {
        FlowConfig {
            rounds: 2,
            rewrite_iterations: 3,
            node_limit: 20_000,
            match_limit: 500,
            search_threads: 2,
            sa: SaOptions::fast(),
            cec: CecOptions {
                conflict_budget: Some(10_000),
                ..CecOptions::default()
            },
            sweep: cec::SweepOptions {
                conflict_budget: Some(10_000),
                ..cec::SweepOptions::default()
            },
            ..FlowConfig::paper()
        }
    }

    /// Selects the extraction engine.
    #[must_use]
    pub fn with_extractor(mut self, extractor: ExtractorKind) -> Self {
        self.extractor = extractor;
        self
    }

    /// Sets the phase-boundary audit level.
    #[must_use]
    pub fn with_audit_level(mut self, level: AuditLevel) -> Self {
        self.audit_level = level;
        self
    }

    /// Enables windowed saturation in [`emorphic_map_flow`] with the given
    /// partitioning knobs.
    #[must_use]
    pub fn with_partitioning(mut self, opts: WindowOptions) -> Self {
        self.partitioning = Some(opts);
        self
    }

    /// The part of this configuration that identifies a saturation.
    pub fn saturation_key(&self) -> SaturationKey {
        SaturationKey {
            rounds: self.rounds,
            rewrite_iterations: self.rewrite_iterations,
            node_limit: self.node_limit,
            match_limit: self.match_limit,
            time_limit: self.saturation_time_limit,
        }
    }
}

/// What identifies a saturation: the knobs [`prepare_network`] and the
/// saturation stage run under. Both take them from this value, not from the
/// [`FlowConfig`], so a knob one of them starts to read has to be added here
/// first, and two configurations with equal keys turn one circuit into the
/// same saturated e-graph — what the job server's checkpoint store relies
/// on. Nothing before extraction reads the library or the mapping, extraction
/// and verification options, and `search_threads` only changes wall-clock
/// time ([`egraph::pool`]), so none of those is in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaturationKey {
    /// [`FlowConfig::rounds`]: the rounds that shape the saturated network.
    pub rounds: usize,
    /// [`FlowConfig::rewrite_iterations`].
    pub rewrite_iterations: usize,
    /// [`FlowConfig::node_limit`], or a window's share of it.
    pub node_limit: usize,
    /// [`FlowConfig::match_limit`].
    pub match_limit: usize,
    /// [`FlowConfig::saturation_time_limit`], or what a window has left of it
    /// (`None` keeps the runner's default).
    pub time_limit: Option<Duration>,
}

/// Runs the extraction engine `kind` names under `config`'s SA options,
/// library and budget, and returns its result plus the engine's report.
fn run_extraction(
    kind: ExtractorKind,
    config: &FlowConfig,
    structural_cost: ExtractionCost,
    egraph: &EGraph<BoolLang>,
    roots: &[Id],
) -> (Result<Extraction, ExtractError>, Vec<EngineReport>) {
    let engine: Box<dyn ExtractionEngine> = match kind {
        ExtractorKind::Sa => Box::new(SaEngine::new(config.sa.clone(), config.library.clone())),
        ExtractorKind::BottomUp => Box::new(BottomUpEngine::new(structural_cost)),
        ExtractorKind::GlobalGreedyDag => Box::new(GlobalGreedyDagEngine::new()),
    };
    engine.extract_with_reports(egraph, roots, &config.extract_budget)
}

/// Translates an engine extraction into the choice exporter's per-class
/// selection (the engine's chosen e-node per class, children canonicalized,
/// plus its cost map for ranking alternatives).
fn extraction_to_class_selection(
    egraph: &EGraph<BoolLang>,
    extraction: &Extraction,
) -> ClassSelection {
    let mut best = egraph::FxHashMap::default();
    for (&id, node) in &extraction.selection.choices {
        if let Some(expr) = node.as_bool() {
            best.insert(id, expr.map_children(|c| egraph.find(c)));
        }
    }
    ClassSelection {
        best,
        costs: extraction.class_costs.clone(),
    }
}

/// The technology-independent prefix of the E-morphic flow: conventional
/// rounds 1..N-1 followed by the final round's `st; if -g` (SOP balancing).
/// The result is the network the resynthesis phase saturates.
pub fn prepare_network(aig: &Aig, config: &FlowConfig) -> Aig {
    let knobs = config.saturation_key();
    let mut current = aig.clone();
    for _ in 0..knobs.rounds.saturating_sub(1) {
        current = restructure(&current, true);
    }
    sop_balance(&current.strash_copy(), &MapOptions::lut6())
}

/// A saturated e-graph plus the circuit interface needed to extract a
/// netlist from it — the product of [`saturate_network`], consumed by
/// [`extract_network`], and the unit of the server's checkpoint/restore
/// cycle (one saturation, many extractions).
#[derive(Debug, Clone)]
pub struct SaturatedState {
    /// The saturated (rebuilt) e-graph.
    pub egraph: EGraph<BoolLang>,
    /// Canonical root classes, aligned with `output_names`.
    pub roots: Vec<Id>,
    /// Design name.
    pub name: String,
    /// Primary-input names (`x<i>` corresponds to entry `i`).
    pub input_names: Vec<String>,
    /// Primary-output names, aligned with `roots`.
    pub output_names: Vec<String>,
    /// Per-iteration saturation reports (empty for a restored checkpoint).
    pub saturation: Vec<egraph::IterationReport>,
    /// Why saturation stopped (`None` for a restored checkpoint).
    pub stop_reason: Option<egraph::StopReason>,
    /// Wall-clock time of the forward AIG → e-graph conversion.
    pub conversion_time: Duration,
    /// Wall-clock time of the saturation itself.
    pub saturation_time: Duration,
}

impl SaturatedState {
    /// The state in the layout a checkpoint of it restores to: equal to
    /// `FlowCheckpoint::capture(self).restore()` — the same e-graph, class
    /// ids, iteration order and roots, so every extraction engine selects
    /// the same — built by [`egraph::serialize::relayout`] without the
    /// document. Like a restored state, it carries no saturation reports,
    /// no stop reason and zero timings.
    pub fn relayout(&self) -> SaturatedState {
        let (egraph, roots) = egraph::serialize::relayout(&self.egraph, &self.roots);
        SaturatedState {
            egraph,
            roots,
            name: self.name.clone(),
            input_names: self.input_names.clone(),
            output_names: self.output_names.clone(),
            saturation: Vec::new(),
            stop_reason: None,
            conversion_time: Duration::ZERO,
            saturation_time: Duration::ZERO,
        }
    }
}

/// Converts `current` to an e-graph and saturates it with the Table-I rule
/// set under the config's limits. The pure saturation phase of
/// [`emorphic_flow`], exposed so a job server can snapshot the result and
/// re-extract it under different knobs without re-saturating.
pub fn saturate_network(current: &Aig, config: &FlowConfig) -> SaturatedState {
    saturate_network_with_interrupt(current, config, None)
}

/// [`saturate_network`] with an optional cooperative interrupt flag wired
/// into the runner ([`egraph::Runner::with_interrupt`]): setting the flag
/// preempts the saturation at the next limit checkpoint, leaving the
/// e-graph rebuilt and consistent with
/// [`egraph::StopReason::Interrupted`] as the stop reason.
pub fn saturate_network_with_interrupt(
    current: &Aig,
    config: &FlowConfig,
    interrupt: Option<Arc<AtomicBool>>,
) -> SaturatedState {
    saturate(
        current,
        &config.saturation_key(),
        config.search_threads,
        &all_rules(),
        interrupt,
    )
}

/// The saturation stage: forward conversion, then the one `Runner` recipe
/// of the flows. Whole designs run under their config's key and search
/// threads; a window passes the key with its carved node limit and the time
/// left to the phase deadline, serial search and its worker's rule set.
pub(crate) fn saturate(
    aig: &Aig,
    knobs: &SaturationKey,
    search_threads: usize,
    rules: &[Rewrite<BoolLang>],
    interrupt: Option<Arc<AtomicBool>>,
) -> SaturatedState {
    let t_convert = Instant::now();
    let conversion = aig_to_egraph(aig);
    let conversion_time = t_convert.elapsed();

    let t_saturate = Instant::now();
    let mut runner = Runner::with_egraph(conversion.egraph)
        .with_iter_limit(knobs.rewrite_iterations)
        .with_node_limit(knobs.node_limit)
        .with_scheduler(Scheduler::Backoff {
            match_limit: knobs.match_limit,
            ban_length: 2,
        })
        .with_search_threads(search_threads);
    if let Some(limit) = knobs.time_limit {
        runner = runner.with_time_limit(limit);
    }
    if let Some(flag) = interrupt {
        runner = runner.with_interrupt(flag);
    }
    let runner = runner.run(rules);
    let roots: Vec<Id> = conversion
        .roots
        .iter()
        .map(|&r| runner.egraph.find(r))
        .collect();
    SaturatedState {
        egraph: runner.egraph,
        roots,
        name: conversion.name,
        input_names: conversion.input_names,
        output_names: conversion.output_names,
        saturation: runner.iterations,
        stop_reason: runner.stop_reason,
        conversion_time,
        saturation_time: t_saturate.elapsed(),
    }
}

/// Runs the configured extraction engine over a saturated state and converts
/// the winning selection back to an AIG. The pure extraction phase of
/// [`emorphic_flow`]: a failed extraction — or a winning selection the
/// backward conversion rejects — yields `None`, with the failure recorded on
/// the corresponding engine report instead of being masked.
pub fn extract_network(
    state: &SaturatedState,
    config: &FlowConfig,
) -> (Option<Aig>, Vec<EngineReport>) {
    let (extraction, mut engines) = run_extraction(
        config.extractor,
        config,
        ExtractionCost::Size,
        &state.egraph,
        &state.roots,
    );
    let extracted = match extraction {
        Ok(extraction) => match crate::convert::try_selection_to_aig(
            &state.egraph,
            &extraction.selection,
            &state.roots,
            &state.input_names,
            &state.output_names,
            &state.name,
        ) {
            Ok(aig) => Some(aig),
            Err(e) => {
                if let Some(report) = engines.iter_mut().find(|r| r.won) {
                    report.won = false;
                    report.error = Some(format!("selection-to-AIG conversion failed: {e}"));
                }
                None
            }
        },
        Err(_) => None,
    };
    (extracted, engines)
}

/// The final technology-dependent round (`st; dch; map`) of the E-morphic
/// flow, exposed so re-extracted checkpoints can be re-mapped standalone.
/// Returns the pre-mapping network and the mapped netlist.
pub fn map_network(aig: &Aig, config: &FlowConfig) -> (Aig, Netlist) {
    conventional_round(aig, config, false)
}

/// The tail every resynthesis driver ends in: keep the extracted network, or
/// the prepared one if extraction produced nothing; if the config asks for
/// verification, run `verify` on it and fall back to the prepared network on
/// a proven mismatch; then run the final `st; dch; map` round. Returns the
/// pre-mapping network, the netlist and whether `verify` answered
/// "equivalent" (`true` when the config skips verification).
///
/// Both callers pass [`check_equivalence_swept`]; what `verified` proves is
/// the reference they close over. [`emorphic_flow`] checks against the
/// prepared network, the job server against the circuit it was submitted.
/// Either way the check sees the network *before* the final round, whose
/// `dch` and mapping run after it. An exhausted SAT budget keeps the
/// resynthesized network (the simulation inside the checker already failed
/// to refute it) but leaves `verified` false.
pub fn verify_and_map(
    prepared: &Aig,
    extracted: Option<Aig>,
    config: &FlowConfig,
    verify: impl FnOnce(&Aig) -> CecResult,
) -> (Aig, Netlist, bool) {
    let mut resynthesized = extracted.unwrap_or_else(|| prepared.clone());
    let mut verified = true;
    if config.verify {
        match verify(&resynthesized) {
            CecResult::Equivalent => {}
            CecResult::NotEquivalent(_) => {
                verified = false;
                resynthesized = prepared.clone();
            }
            CecResult::Unknown => verified = false,
        }
    }
    let (final_aig, netlist) = conventional_round(&resynthesized, config, false);
    (final_aig, netlist, verified)
}

/// Wall-clock breakdown of a flow run (the Fig. 9 data).
///
/// The four parts are measured over *disjoint* intervals of the flow — the
/// forward conversion is timed once inside `aig_to_egraph` and never added
/// again — so they sum to the measured flow runtime up to the few untimed
/// glue statements between phases (pinned by a regression test).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RuntimeBreakdown {
    /// Time spent in the conventional delay-oriented flow (SOP balancing,
    /// choices, mapping).
    pub conventional: Duration,
    /// Time spent converting between the circuit and the e-graph.
    pub conversion: Duration,
    /// Time spent in rewriting plus SA extraction and evaluation.
    pub extraction: Duration,
    /// Time spent in SAT-based CEC verification of the resynthesized network
    /// (zero when verification is disabled and for the baseline flow).
    pub verification: Duration,
}

impl RuntimeBreakdown {
    /// Total wall-clock time.
    pub fn total(&self) -> Duration {
        self.conventional + self.conversion + self.extraction + self.verification
    }

    /// Percentage split `(conventional, conversion, extraction,
    /// verification)`.
    pub fn percentages(&self) -> (f64, f64, f64, f64) {
        let total = self.total().as_secs_f64();
        if total <= 0.0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        (
            self.conventional.as_secs_f64() / total * 100.0,
            self.conversion.as_secs_f64() / total * 100.0,
            self.extraction.as_secs_f64() / total * 100.0,
            self.verification.as_secs_f64() / total * 100.0,
        )
    }
}

/// Result of running a flow on one circuit.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// Post-mapping quality of the final netlist.
    pub qor: Qor,
    /// Total runtime of the flow.
    pub runtime: Duration,
    /// Runtime breakdown (Fig. 9).
    pub breakdown: RuntimeBreakdown,
    /// The technology-independent network right before the final mapping.
    pub final_aig: Aig,
    /// Whether [`check_equivalence_swept`] *proved* the resynthesized network
    /// equivalent to the prepared network ([`prepare_network`]'s result,
    /// which the e-graph was built from) — not to the flow's input, and
    /// before the final `st; dch; map` round that produces `final_aig` and
    /// the netlist.
    /// Always `true` when verification is disabled and for the baseline
    /// flow, which resynthesizes nothing. `false` also covers an exhausted
    /// SAT budget: the resynthesized network is kept in that case — random
    /// simulation found no mismatch — but the proof did not complete.
    pub verified: bool,
    /// Statistics of the rewriting phase (empty for the baseline flow).
    pub egraph_nodes: usize,
    /// Number of e-classes after rewriting (0 for the baseline flow).
    pub egraph_classes: usize,
    /// Per-iteration reports of the saturation phase (empty for the baseline
    /// flow), including e-node counts and incremental-rebuild timings.
    pub saturation: Vec<egraph::IterationReport>,
    /// The extraction engine's report (one row; empty for the baseline
    /// flow).
    pub extraction_engines: Vec<EngineReport>,
    /// Aggregated phase-boundary audit findings (empty at
    /// [`AuditLevel::Off`]; locations are prefixed with the phase name).
    pub audit: AuditReport,
    /// `None` unless the configuration asked for windows
    /// ([`FlowConfig::partitioning`]). [`emorphic_flow`] has no windowed
    /// path, so it then runs monolithic and returns a report whose only
    /// populated field is `error`, saying so.
    pub window: Option<WindowReport>,
}

/// The technology-independent half of a conventional round: `st; [if -g;]
/// st; dch`. The next round starts from this network, never from a mapped
/// one, so only a round whose netlist is read goes on to map it.
fn restructure(aig: &Aig, with_sop: bool) -> Aig {
    let mut current = aig.strash_copy();
    if with_sop {
        current = sop_balance(&current, &MapOptions::lut6());
    }
    dch_like(&current.strash_copy())
}

fn conventional_round(aig: &Aig, config: &FlowConfig, with_sop: bool) -> (Aig, Netlist) {
    let current = restructure(aig, with_sop);
    let netlist = map_to_cells(&current, &config.library, &config.map_options);
    (current, netlist)
}

/// Runs the delay-oriented baseline flow.
pub fn baseline_flow(aig: &Aig, config: &FlowConfig) -> FlowResult {
    let start = Instant::now();
    let mut current = aig.clone();
    for _ in 0..config.rounds {
        current = restructure(&current, true);
    }
    // Only the last round's netlist is reported and audited.
    let netlist = map_to_cells(&current, &config.library, &config.map_options);
    let mut audit = AuditReport::new();
    if config.rounds > 0 {
        audit.absorb("map", audit_netlist(&current, &netlist, config.audit_level));
        audit.absorb("map", audit_aig_dag_only(&current, config.audit_level));
    }
    let mut qor = netlist.qor();
    qor.name = aig.name().to_string();
    let runtime = start.elapsed();
    FlowResult {
        qor,
        runtime,
        breakdown: RuntimeBreakdown {
            conventional: runtime,
            conversion: Duration::ZERO,
            extraction: Duration::ZERO,
            verification: Duration::ZERO,
        },
        final_aig: current,
        verified: true,
        egraph_nodes: 0,
        egraph_classes: 0,
        saturation: Vec::new(),
        extraction_engines: Vec::new(),
        audit,
        window: None,
    }
}

/// Runs the E-morphic flow: the baseline rounds with e-graph resynthesis
/// inserted before the final mapping round.
///
/// `verified` in the result is the verdict of [`check_equivalence_swept`] on
/// the resynthesized network against the *prepared* network (`aig` after the
/// conventional rounds and `st; if -g`), taken before the final
/// `st; dch; map` round: it covers the e-graph phase and nothing else. The
/// sweep merges the cones the resynthesis left intact before any output is
/// queried, so arithmetic circuits such as multipliers verify within the
/// config's conflict budget.
///
/// The e-graph always covers the whole design. With
/// [`FlowConfig::partitioning`] set the flow runs exactly the same way and
/// says so through [`FlowResult::window`]'s `error`.
pub fn emorphic_flow(aig: &Aig, config: &FlowConfig) -> FlowResult {
    let start = Instant::now();
    let mut conventional_time = Duration::ZERO;
    let mut audit = AuditReport::new();

    // Rounds 1..N-1 of the conventional flow plus the technology-independent
    // part of the final round (st; if -g).
    let t0 = Instant::now();
    let current = prepare_network(aig, config);
    conventional_time += t0.elapsed();

    // E-graph resynthesis: one e-graph over the whole design, limited
    // rewriting, engine-driven extraction. `saturate_network` brackets
    // `aig_to_egraph` with its own conversion timer, which already covers the
    // forward pass the conversion measures internally as `forward_time`;
    // adding `forward_time` on top would double-count it and inflate the
    // conversion share of the Fig. 9 breakdown. The extraction share is the
    // saturation time plus the post-saturation bracket below.
    let mut state = saturate_network(&current, config);
    let t_extract = Instant::now();
    let egraph_nodes = state.egraph.total_nodes();
    let egraph_classes = state.egraph.num_classes();
    audit.absorb("saturate", audit_egraph(&state.egraph, config.audit_level));

    // A failed extraction (an unrealizable root, an unmappable library)
    // falls back to the pre-resynthesis network, and so does a selection the
    // backward conversion rejects — in that case the conversion error is
    // recorded on the winning engine's report (and its win stripped, since
    // its result was not kept) so the failure stays visible in the reports.
    let (extracted_aig, extraction_engines) = extract_network(&state, config);
    if let Some(extracted) = &extracted_aig {
        audit.absorb("extract", audit_aig_dag_only(extracted, config.audit_level));
    }
    let extraction_time = state.saturation_time + t_extract.elapsed();
    // The e-graph is freed before verification and the final round.
    let saturation = std::mem::take(&mut state.saturation);
    let conversion_time = state.conversion_time;
    drop(state);

    // Verify against the prepared network, fall back to it on a proven
    // mismatch, then run the final (st; dch; map) round. Backward conversion
    // time is part of the extraction phase already.
    let t_tail = Instant::now();
    let mut verification_time = Duration::ZERO;
    let (final_aig, netlist, verified) =
        verify_and_map(&current, extracted_aig, config, |resynthesized| {
            let t_verify = Instant::now();
            let result =
                check_equivalence_swept(&current, resynthesized, &config.cec, &config.sweep);
            verification_time = t_verify.elapsed();
            result
        });
    audit.absorb(
        "map",
        audit_netlist(&final_aig, &netlist, config.audit_level),
    );
    audit.absorb("map", audit_aig_dag_only(&final_aig, config.audit_level));
    conventional_time += t_tail.elapsed().saturating_sub(verification_time);

    let mut qor = netlist.qor();
    qor.name = aig.name().to_string();
    FlowResult {
        qor,
        runtime: start.elapsed(),
        breakdown: RuntimeBreakdown {
            conventional: conventional_time,
            conversion: conversion_time,
            extraction: extraction_time,
            verification: verification_time,
        },
        final_aig,
        verified,
        egraph_nodes,
        egraph_classes,
        saturation,
        extraction_engines,
        audit,
        window: config.partitioning.as_ref().map(|_| WindowReport {
            error: Some("windowed resynthesis was removed; ran monolithic".into()),
            ..WindowReport::default()
        }),
    }
}

/// Errors of the choice-aware mapping flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapFlowError {
    /// The extraction engine could not produce a per-class selection.
    Extract(ExtractError),
    /// The e-graph could not be exported as a choice network.
    Choice(ChoiceError),
    /// Technology mapping failed (typed, instead of aborting the process).
    Map(MapError),
    /// The windowed saturation path failed (partitioning or stitching).
    Window(WindowError),
}

impl std::fmt::Display for MapFlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapFlowError::Extract(e) => write!(f, "extraction failed: {e}"),
            MapFlowError::Choice(e) => write!(f, "choice export failed: {e}"),
            MapFlowError::Map(e) => write!(f, "technology mapping failed: {e}"),
            MapFlowError::Window(e) => write!(f, "windowed saturation failed: {e}"),
        }
    }
}

impl std::error::Error for MapFlowError {}

impl From<ExtractError> for MapFlowError {
    fn from(e: ExtractError) -> Self {
        MapFlowError::Extract(e)
    }
}

impl From<ChoiceError> for MapFlowError {
    fn from(e: ChoiceError) -> Self {
        MapFlowError::Choice(e)
    }
}

impl From<MapError> for MapFlowError {
    fn from(e: MapError) -> Self {
        MapFlowError::Map(e)
    }
}

impl From<WindowError> for MapFlowError {
    fn from(e: WindowError) -> Self {
        MapFlowError::Window(e)
    }
}

/// Which metric the choice-aware mapping flow optimizes first when choosing
/// between the choice-aware and choice-free netlists of the same run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MapObjective {
    /// Area first, delay as the tie-breaker (the PR-4 behavior).
    #[default]
    Area,
    /// Delay first, area as the tie-breaker (the timing-driven scenario:
    /// meet delay, then recover area).
    Delay,
}

/// Configuration of [`emorphic_map_flow`].
#[derive(Debug, Clone)]
pub struct MapFlowConfig {
    /// Saturation, mapping, library and CEC knobs (shared with
    /// [`emorphic_flow`]). `flow.map_options` carries the delay target and
    /// the recovery-pass count (see [`MapFlowConfig::with_delay_target_ps`]
    /// and [`MapFlowConfig::with_recovery_passes`]).
    pub flow: FlowConfig,
    /// Choice-export configuration (members per class, ranking cost).
    pub choices: ChoiceConfig,
    /// Map with choices (`false` degenerates to mapping the extracted
    /// representative network, the apples-to-apples baseline).
    pub use_choices: bool,
    /// Primary selection metric between the choice-aware and choice-free
    /// netlists. The kept netlist is never worse than the baseline on this
    /// metric, and never worse on the secondary one at equal primary.
    pub objective: MapObjective,
    /// Which extraction engine picks the class representatives the
    /// monolithic choice export is built around. The default
    /// [`ExtractorKind::BottomUp`] is the greedy selection the exporter
    /// historically made inline; any other engine reshapes which members
    /// every choice class keeps. The windowed path (a config with
    /// [`FlowConfig::with_partitioning`]) ignores it: every window is
    /// exported with [`choices::egraph_to_choices`]'s own greedy selection.
    pub extractor: ExtractorKind,
}

impl MapFlowConfig {
    /// The paper-style configuration with choices enabled.
    pub fn paper() -> Self {
        MapFlowConfig {
            flow: FlowConfig::paper(),
            choices: ChoiceConfig::default(),
            use_choices: true,
            objective: MapObjective::Area,
            extractor: ExtractorKind::BottomUp,
        }
    }

    /// A reduced configuration for tests, examples and CI.
    pub fn fast() -> Self {
        MapFlowConfig {
            flow: FlowConfig::fast(),
            choices: ChoiceConfig::default(),
            use_choices: true,
            objective: MapObjective::Area,
            extractor: ExtractorKind::BottomUp,
        }
    }

    /// Selects the extraction engine driving the class representatives of
    /// the monolithic choice export.
    #[must_use]
    pub fn with_extractor(mut self, extractor: ExtractorKind) -> Self {
        self.extractor = extractor;
        self
    }

    /// Enables or disables choice-aware mapping.
    #[must_use]
    pub fn with_choices(mut self, use_choices: bool) -> Self {
        self.use_choices = use_choices;
        self
    }

    /// Sets the primary selection metric.
    #[must_use]
    pub fn with_objective(mut self, objective: MapObjective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets the mapper's delay target in ps (targets below the achievable
    /// critical path are floored at it; extra slack is traded for area by
    /// the recovery passes).
    #[must_use]
    pub fn with_delay_target_ps(mut self, target: f64) -> Self {
        self.flow.map_options.delay_target_ps = Some(target);
        self
    }

    /// Sets the number of map → required-time → recover passes.
    #[must_use]
    pub fn with_recovery_passes(mut self, passes: usize) -> Self {
        self.flow.map_options.area_passes = passes;
        self
    }
}

/// Result of the choice-aware mapping flow on one circuit.
#[derive(Debug, Clone)]
pub struct MapFlowResult {
    /// The selected mapped netlist (the better of choice-aware and
    /// choice-free when choices are enabled).
    pub netlist: Netlist,
    /// QoR of [`MapFlowResult::netlist`].
    pub qor: Qor,
    /// QoR of mapping the representative-only network (the choice-free
    /// baseline inside the same run).
    pub base_qor: Qor,
    /// Whether the choice-aware netlist won the selection.
    pub used_choices: bool,
    /// Worst slack of the kept netlist in ps: effective delay target minus
    /// critical-path delay (non-negative by construction).
    pub worst_slack_ps: f64,
    /// Whether SAT CEC *proved* the mapped netlist equivalent to the input.
    pub verified: bool,
    /// Choice-export statistics (live classes, alternatives, rejections).
    pub export: ExportStats,
    /// The report of the extraction engine that picked the class
    /// representatives (one row).
    pub engines: Vec<EngineReport>,
    /// E-nodes after saturation.
    pub egraph_nodes: usize,
    /// E-classes after saturation.
    pub egraph_classes: usize,
    /// Total wall-clock time.
    pub runtime: Duration,
    /// Aggregated phase-boundary audit findings (empty at
    /// [`AuditLevel::Off`]; locations are prefixed with the phase name).
    pub audit: AuditReport,
    /// Per-window statistics when the saturation ran windowed (`None` on the
    /// monolithic path).
    pub window: Option<WindowReport>,
}

/// The choice-aware mapping flow: saturate → export the e-graph as a
/// [`choices::ChoiceAig`] → map with choice-aware cut enumeration → CEC-verify
/// the mapped netlist against the input.
///
/// Unlike [`emorphic_flow`], which collapses the saturated e-graph to a
/// single extracted design before mapping, this flow hands the mapper the
/// whole recorded e-space: every live e-class contributes its top-K
/// structures, and `techmap` picks the cheapest realization per cut. The
/// choice-free baseline (mapping just the representative network — exactly
/// what extraction alone would produce) is mapped in the same run, and the
/// better netlist is kept, so enabling choices can never worsen the result.
///
/// # Errors
/// Returns a [`MapFlowError`] if the export or the mapping fails; both are
/// typed conditions, not panics.
pub fn emorphic_map_flow(aig: &Aig, config: &MapFlowConfig) -> Result<MapFlowResult, MapFlowError> {
    let start = Instant::now();
    let space = match &config.flow.partitioning {
        Some(opts) => windowed_choice_space(aig, opts, config)?,
        None => monolithic_choice_space(aig, config)?,
    };
    map_choice_space(aig, config, space, start)
}

/// The recorded e-space handed to choice-aware mapping, with the bookkeeping
/// each saturation path collects along the way.
struct ChoiceSpace {
    network: choices::ChoiceAig,
    export: ExportStats,
    engines: Vec<EngineReport>,
    egraph_nodes: usize,
    egraph_classes: usize,
    audit: AuditReport,
    window: Option<WindowReport>,
}

/// The export configuration actually handed to the choice exporter:
/// disabling choices degenerates to one member per class.
fn effective_choice_config(config: &MapFlowConfig) -> ChoiceConfig {
    ChoiceConfig {
        max_choices: if config.use_choices {
            config.choices.max_choices
        } else {
            1
        },
        cost: config.choices.cost,
    }
}

/// Builds the choice space from one e-graph over the whole design.
fn monolithic_choice_space(aig: &Aig, config: &MapFlowConfig) -> Result<ChoiceSpace, MapFlowError> {
    let SaturatedState {
        egraph,
        roots,
        name,
        input_names,
        output_names,
        ..
    } = saturate_network(&aig.strash_copy(), &config.flow);
    let audit_level = config.flow.audit_level;
    let mut audit = AuditReport::new();
    audit.absorb("saturate", audit_egraph(&egraph, audit_level));

    // Engine-driven per-class selection: the configured engine picks every
    // class representative, and the exporter builds the choice network
    // around that selection.
    let structural_cost = match config.choices.cost {
        ChoiceCost::Size => ExtractionCost::Size,
        ChoiceCost::Depth => ExtractionCost::Depth,
    };
    let (extraction, engines) = run_extraction(
        config.extractor,
        &config.flow,
        structural_cost,
        &egraph,
        &roots,
    );
    let extraction = extraction?;
    let selection = extraction_to_class_selection(&egraph, &extraction);

    // Choice export: the whole e-space, not one extracted design.
    let (network, export) = egraph_to_choices_with_selection(
        &egraph,
        &roots,
        &input_names,
        &output_names,
        &name,
        &effective_choice_config(config),
        &selection,
    )?;
    Ok(ChoiceSpace {
        network,
        export,
        engines,
        egraph_nodes: egraph.total_nodes(),
        egraph_classes: egraph.num_classes(),
        audit,
        window: None,
    })
}

/// Builds the choice space by windowed saturation: carve, saturate each
/// window as an independent e-graph, stitch the per-window choice spaces
/// into one global network ([`crate::windowed::saturate_windows`]).
fn windowed_choice_space(
    aig: &Aig,
    opts: &WindowOptions,
    config: &MapFlowConfig,
) -> Result<ChoiceSpace, MapFlowError> {
    let host = aig.strash_copy();
    let (stitched, part, report) =
        saturate_windows(&host, opts, &config.flow, &effective_choice_config(config))?;
    let audit_level = config.flow.audit_level;
    let mut audit = AuditReport::new();
    audit.absorb("partition", audit_partition(&host, &part, audit_level));
    audit.absorb(
        "stitch",
        audit_stitched(&host, &part, &stitched, audit_level),
    );
    let export = ExportStats {
        live_classes: stitched.stats.classes,
        classes: stitched.stats.classes,
        alternatives: stitched.stats.alternatives,
        rejected: stitched.stats.dropped_ordering + stitched.stats.dropped_duplicate,
    };
    Ok(ChoiceSpace {
        network: stitched.network,
        export,
        engines: Vec::new(),
        egraph_nodes: report.egraph_nodes,
        egraph_classes: report.egraph_classes,
        audit,
        window: Some(report),
    })
}

/// The shared mapping tail: map the representative baseline, map with
/// choices, keep the better netlist, CEC-verify the kept one.
fn map_choice_space(
    aig: &Aig,
    config: &MapFlowConfig,
    space: ChoiceSpace,
    start: Instant,
) -> Result<MapFlowResult, MapFlowError> {
    let ChoiceSpace {
        network,
        export,
        engines,
        egraph_nodes,
        egraph_classes,
        mut audit,
        window,
    } = space;
    let audit_level = config.flow.audit_level;
    audit.absorb("choice-export", audit_choices(&network, audit_level));

    // Choice-free baseline: map the representative cone only.
    let repr_network = network.repr_network();
    let base_netlist = try_map_to_cells(
        &repr_network,
        &config.flow.library,
        &config.flow.map_options,
    )?;
    let base_qor = base_netlist.qor();

    // Choice-aware mapping, keeping the better netlist.
    let mut used_choices = false;
    let mut netlist = base_netlist;
    if config.use_choices && network.num_classes() > 0 {
        // A mapping failure over the choice network (e.g. a dangling
        // alternative with no library-matchable cut) falls back to the
        // already-mapped baseline: enabling choices must never make the flow
        // fail where the choice-free path succeeds.
        if let Ok(choice_netlist) =
            try_map_to_cells_with_choices(&network, &config.flow.library, &config.flow.map_options)
        {
            // Keep the netlist that wins on the configured objective:
            // lexicographic on (primary, secondary), so the kept result is
            // Pareto-no-worse than the baseline on the primary metric.
            let better = match config.objective {
                MapObjective::Area => {
                    (choice_netlist.area_um2(), choice_netlist.delay_ps())
                        < (netlist.area_um2(), netlist.delay_ps())
                }
                MapObjective::Delay => {
                    (choice_netlist.delay_ps(), choice_netlist.area_um2())
                        < (netlist.delay_ps(), netlist.area_um2())
                }
            };
            if better {
                used_choices = true;
                netlist = choice_netlist;
            }
        }
    }
    let mapped_source: &Aig = if used_choices {
        network.aig()
    } else {
        &repr_network
    };
    audit.absorb("map", audit_netlist(mapped_source, &netlist, audit_level));

    // CEC the mapped netlist (re-synthesized into AIG form) against the
    // original input. The sweeping variant merges the structurally aligned
    // cones (mapped gates correspond to source cuts) bottom-up, which closes
    // arithmetic miters the monolithic check cannot within the budget.
    let mut verified = true;
    if config.flow.verify {
        let mapped_aig = netlist.to_aig(mapped_source);
        verified =
            cec::check_equivalence_swept(aig, &mapped_aig, &config.flow.cec, &config.flow.sweep)
                .is_equivalent();
        audit.absorb("sweep", audit_aig_dag_only(&mapped_aig, audit_level));
    }

    let mut qor = netlist.qor();
    qor.name = aig.name().to_string();
    let worst_slack_ps = netlist.worst_slack_ps();
    Ok(MapFlowResult {
        qor,
        base_qor,
        netlist,
        used_choices,
        worst_slack_ps,
        verified,
        export,
        engines,
        egraph_nodes,
        egraph_classes,
        runtime: start.elapsed(),
        audit,
        window,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cec::check_equivalence;

    #[test]
    fn baseline_flow_produces_sane_qor() {
        let circuit = benchgen::adder(8).aig;
        let config = FlowConfig::fast();
        let result = baseline_flow(&circuit, &config);
        assert!(result.qor.area_um2 > 0.0);
        assert!(result.qor.delay_ps > 0.0);
        assert!(result.qor.levels > 0);
        assert_eq!(result.qor.name, "adder");
        assert!(result.verified);
        assert_eq!(result.breakdown.conversion, Duration::ZERO);
    }

    #[test]
    fn prepare_network_and_baseline_are_unchanged_by_skipping_unread_maps() {
        // Recorded at `8b9e8b8`, when every round still ran a full
        // `map_to_cells` whose netlist only the last round's caller read.
        // Three rounds, so two technology-independent rounds precede the
        // final `st; if -g`.
        let config = FlowConfig {
            rounds: 3,
            audit_level: AuditLevel::PhaseBoundaries,
            ..FlowConfig::fast()
        };
        let golden: [(&str, Aig, u128, u128, Qor); 2] = [
            (
                "adder",
                benchgen::adder(8).aig,
                0x8aa3_7947_339d_20dc_e312_1d8e_ccfb_fb46,
                0xaf76_6423_791c_76f9_e0f7_269f_4529_f9d5,
                Qor {
                    name: "adder".to_string(),
                    area_um2: f64::from_bits(0x4029_b9c0_ebed_fa48),
                    delay_ps: f64::from_bits(0x405f_8000_0000_0000),
                    levels: 7,
                    gates: 157,
                },
            ),
            (
                "multiplier",
                benchgen::multiplier(4).aig,
                0x9493_8752_e362_4c85_591f_56e2_900a_3d62,
                0x9a0e_d128_3c29_8d21_405a_5074_9506_023c,
                Qor {
                    name: "multiplier".to_string(),
                    area_um2: f64::from_bits(0x4036_e3fe_5c91_d155),
                    delay_ps: f64::from_bits(0x4065_c000_0000_0000),
                    levels: 11,
                    gates: 272,
                },
            ),
        ];
        for (name, circuit, prepared, final_aig, qor) in golden {
            let got = prepare_network(&circuit, &config).structural_fingerprint();
            assert_eq!(got, prepared, "{name}: prepared network");
            let baseline = baseline_flow(&circuit, &config);
            assert_eq!(
                baseline.final_aig.structural_fingerprint(),
                final_aig,
                "{name}: baseline network"
            );
            assert_eq!(baseline.qor, qor, "{name}");
            // Only the last round's netlist is audited, as before.
            assert!(baseline.audit.is_clean(), "{name}: {:?}", baseline.audit);
            assert_eq!(baseline.audit.checks_run, 7, "{name}");
        }
    }

    #[test]
    fn emorphic_flow_verifies_and_reports_breakdown() {
        let circuit = benchgen::adder(6).aig;
        let config = FlowConfig::fast();
        let result = emorphic_flow(&circuit, &config);
        assert!(result.verified, "resynthesized circuit must be equivalent");
        assert!(result.qor.delay_ps > 0.0);
        assert!(result.egraph_nodes > 0);
        assert!(result.egraph_classes > 0);
        let (conv_pct, conversion_pct, extract_pct, verify_pct) = result.breakdown.percentages();
        let total = conv_pct + conversion_pct + extract_pct + verify_pct;
        assert!(
            (total - 100.0).abs() < 1.0,
            "percentages sum to ~100, got {total}"
        );
        assert!(extract_pct > 0.0);
    }

    #[test]
    fn paranoid_audit_is_clean_on_flows() {
        let circuit = benchgen::adder(6).aig;
        let config = FlowConfig::fast().with_audit_level(AuditLevel::Paranoid);
        let result = emorphic_flow(&circuit, &config);
        assert!(result.audit.checks_run > 0);
        assert!(result.audit.is_clean(), "{}", result.audit);

        let map_config = MapFlowConfig {
            flow: config,
            ..MapFlowConfig::fast()
        };
        let map_result = emorphic_map_flow(&circuit, &map_config).unwrap();
        assert!(map_result.audit.checks_run > 0);
        assert!(map_result.audit.is_clean(), "{}", map_result.audit);

        let base = baseline_flow(
            &circuit,
            &FlowConfig::fast().with_audit_level(AuditLevel::Paranoid),
        );
        assert!(base.audit.checks_run > 0);
        assert!(base.audit.is_clean(), "{}", base.audit);

        // Off runs no checks at all.
        let off = emorphic_flow(&circuit, &FlowConfig::fast());
        assert_eq!(off.audit.checks_run, 0);
        assert!(off.audit.is_clean());
    }

    #[test]
    fn breakdown_sums_to_measured_runtime() {
        // Regression for the double-counted forward conversion time: the
        // breakdown parts are measured over disjoint intervals, so their sum
        // can never exceed the measured runtime, and the untimed glue between
        // phases must stay a small fraction of it.
        let circuit = benchgen::adder(8).aig;
        let config = FlowConfig::fast();
        let result = emorphic_flow(&circuit, &config);
        let total = result.breakdown.total();
        assert!(
            total <= result.runtime + Duration::from_millis(5),
            "breakdown {total:?} exceeds runtime {:?} (double-counted phase?)",
            result.runtime
        );
        let gap = result.runtime.saturating_sub(total);
        assert!(
            gap <= result.runtime / 20 + Duration::from_millis(10),
            "untimed gap {gap:?} is more than 5% of runtime {:?}",
            result.runtime
        );
    }

    #[test]
    fn parallel_search_threads_do_not_change_flow_results() {
        // `search_threads` only changes wall-clock time: the saturation
        // search is bit-identical for every thread count, and with the same
        // SA seed the whole flow lands on the same QoR.
        let circuit = benchgen::adder(6).aig;
        let serial = emorphic_flow(
            &circuit,
            &FlowConfig {
                search_threads: 1,
                ..FlowConfig::fast()
            },
        );
        let parallel = emorphic_flow(
            &circuit,
            &FlowConfig {
                search_threads: 4,
                ..FlowConfig::fast()
            },
        );
        assert_eq!(serial.egraph_nodes, parallel.egraph_nodes);
        assert_eq!(serial.egraph_classes, parallel.egraph_classes);
        assert_eq!(serial.saturation.len(), parallel.saturation.len());
        for (a, b) in serial.saturation.iter().zip(&parallel.saturation) {
            assert_eq!(a.matched, b.matched);
            assert_eq!(a.applied, b.applied);
            assert_eq!(a.egraph_nodes, b.egraph_nodes);
            assert_eq!(a.search_complete, b.search_complete);
        }
        assert_eq!(serial.qor.area_um2, parallel.qor.area_um2);
        assert_eq!(serial.qor.delay_ps, parallel.qor.delay_ps);
    }

    #[test]
    fn emorphic_final_circuit_is_equivalent_to_input() {
        let circuit = benchgen::multiplier(3).aig;
        let config = FlowConfig::fast();
        let result = emorphic_flow(&circuit, &config);
        let check = check_equivalence(&circuit, &result.final_aig, &CecOptions::default());
        assert!(check.is_equivalent(), "{check:?}");
    }

    #[test]
    fn emorphic_flow_proves_a_multiplier() {
        // Monolithic CDCL on this miter runs out of the fast config's 10 000
        // conflicts and leaves `verified` false after ~20 s in release; the
        // sweep merges the intact partial-product cones first.
        let circuit = benchgen::multiplier(8).aig;
        let result = emorphic_flow(&circuit, &FlowConfig::fast());
        assert!(result.verified);
    }

    #[test]
    fn emorphic_not_worse_than_baseline_on_small_adder() {
        // On a tiny circuit both flows should land in the same ballpark; the
        // E-morphic result must never be dramatically worse.
        let circuit = benchgen::adder(6).aig;
        let config = FlowConfig::fast();
        let base = baseline_flow(&circuit, &config);
        let emorphic = emorphic_flow(&circuit, &config);
        assert!(emorphic.qor.delay_ps <= base.qor.delay_ps * 1.25 + 1.0);
    }

    #[test]
    fn map_flow_choices_never_worse_and_verified() {
        let circuit = benchgen::adder(6).aig;
        let config = MapFlowConfig::fast();
        let with_choices = emorphic_map_flow(&circuit, &config).unwrap();
        let without = emorphic_map_flow(&circuit, &config.clone().with_choices(false)).unwrap();
        assert!(with_choices.verified, "choice-mapped netlist must verify");
        assert!(without.verified);
        // The baseline inside both runs is the same representative mapping,
        // and the choice run keeps the better netlist, so it can never be
        // worse on area.
        assert_eq!(
            with_choices.base_qor.area_um2, without.qor.area_um2,
            "identical saturation must give identical representative mapping"
        );
        assert!(with_choices.qor.area_um2 <= without.qor.area_um2 + 1e-9);
    }

    #[test]
    fn map_flow_delay_objective_never_worse_on_delay() {
        // With the delay objective, the kept netlist's delay can never
        // exceed the choice-free baseline's (both runs see the same
        // deterministic saturation, and the flow keeps the delay-better
        // netlist).
        let circuit = benchgen::adder(6).aig;
        let config = MapFlowConfig::fast().with_objective(MapObjective::Delay);
        let with_choices = emorphic_map_flow(&circuit, &config).unwrap();
        let without = emorphic_map_flow(&circuit, &config.clone().with_choices(false)).unwrap();
        assert!(with_choices.verified);
        assert!(without.verified);
        assert!(with_choices.qor.delay_ps <= without.qor.delay_ps + 1e-9);
        assert!(with_choices.worst_slack_ps >= -1e-9);
    }

    #[test]
    fn map_flow_delay_target_and_recovery_knobs() {
        let circuit = benchgen::adder(6).aig;
        // Delay-optimal run fixes the achievable critical path.
        let optimal =
            emorphic_map_flow(&circuit, &MapFlowConfig::fast().with_recovery_passes(0)).unwrap();
        let target = optimal.qor.delay_ps * 1.5;
        let relaxed = emorphic_map_flow(
            &circuit,
            &MapFlowConfig::fast()
                .with_delay_target_ps(target)
                .with_recovery_passes(2),
        )
        .unwrap();
        assert!(relaxed.verified);
        // The recovered area never exceeds the delay-optimal mapping's, and
        // the kept netlist honors the target up to the baseline's own
        // achievable critical path (a floored target is reported, not faked).
        assert!(relaxed.qor.area_um2 <= optimal.qor.area_um2 + 1e-9);
        assert!(relaxed.qor.delay_ps <= target.max(relaxed.base_qor.delay_ps) + 1e-9);
        assert!(relaxed.netlist.delay_target_ps() >= relaxed.qor.delay_ps - 1e-9);
        assert!(relaxed.worst_slack_ps >= -1e-9);
    }

    #[test]
    fn map_flow_reports_export_stats() {
        let circuit = benchgen::multiplier(3).aig;
        let result = emorphic_map_flow(&circuit, &MapFlowConfig::fast()).unwrap();
        assert!(result.egraph_nodes > 0);
        assert!(result.export.live_classes > 0);
        assert!(result.verified);
        assert!(result.qor.area_um2 > 0.0);
    }

    #[test]
    fn map_flow_honours_the_saturation_time_limit() {
        // Regression: the map flow's own copies of the saturation recipe
        // predated `saturation_time_limit` and silently ignored it, on the
        // monolithic and on the windowed path.
        let circuit = benchgen::multiplier(4).aig;
        for partitioning in [None, Some(WindowOptions::default())] {
            let run = |limit: Option<Duration>| {
                let config = MapFlowConfig {
                    flow: FlowConfig {
                        saturation_time_limit: limit,
                        partitioning: partitioning.clone(),
                        ..FlowConfig::fast()
                    },
                    ..MapFlowConfig::fast()
                };
                emorphic_map_flow(&circuit, &config).unwrap()
            };
            let unlimited = run(None);
            let limited = run(Some(Duration::ZERO));
            assert!(limited.egraph_nodes < unlimited.egraph_nodes);
            assert!(limited.verified, "a cut-short run still verifies");
            // Windows that start past the phase deadline are skipped.
            if let Some(report) = &limited.window {
                assert!(report.windows > 0);
                assert_eq!(report.windows_skipped, report.windows);
            }
        }
    }

    #[test]
    fn partitioned_emorphic_flow_runs_monolithic() {
        let circuit = benchgen::adder(8).aig;
        let mono = emorphic_flow(&circuit, &FlowConfig::fast());
        let config = FlowConfig::fast().with_partitioning(WindowOptions::default());
        let partitioned = emorphic_flow(&circuit, &config);
        assert_eq!(
            partitioned.qor.area_um2.to_bits(),
            mono.qor.area_um2.to_bits()
        );
        assert_eq!(
            partitioned.qor.delay_ps.to_bits(),
            mono.qor.delay_ps.to_bits()
        );
        assert_eq!(partitioned.qor.gates, mono.qor.gates);
        assert_eq!(partitioned.final_aig.outputs(), mono.final_aig.outputs());
        assert_eq!(partitioned.final_aig.num_ands(), mono.final_aig.num_ands());
        assert_eq!(partitioned.verified, mono.verified);
        // The ignored option is reported, never silently dropped.
        let report = partitioned.window.expect("a partitioned run must report");
        assert!(report.error.is_some());
        assert!(mono.window.is_none());
        assert!(baseline_flow(&circuit, &config).window.is_none());
    }

    #[test]
    fn windowed_map_flow_returns_window_errors() {
        // The map flow has no monolithic fallback: bad window knobs are a
        // typed error.
        let circuit = benchgen::adder(4).aig;
        let config = MapFlowConfig {
            flow: FlowConfig::fast().with_partitioning(WindowOptions {
                max_leaves: 1,
                ..WindowOptions::default()
            }),
            ..MapFlowConfig::fast()
        };
        assert!(matches!(
            emorphic_map_flow(&circuit, &config),
            Err(MapFlowError::Window(WindowError::InvalidOptions(_)))
        ));
    }

    #[test]
    fn windowed_map_flow_is_verified_and_audit_clean() {
        let circuit = benchgen::multiplier(4).aig;
        let config = MapFlowConfig {
            flow: FlowConfig::fast()
                .with_partitioning(WindowOptions::default())
                .with_audit_level(AuditLevel::Paranoid),
            ..MapFlowConfig::fast()
        };
        let result = emorphic_map_flow(&circuit, &config).unwrap();
        assert!(result.verified, "windowed mapped netlist must verify");
        assert!(result.qor.area_um2 > 0.0);
        assert!(result.audit.checks_run > 0);
        assert!(result.audit.is_clean(), "{}", result.audit);
        let report = result.window.expect("windowed path must report");
        assert!(report.windows > 0);
        assert!(report.error.is_none());
        assert!(result.egraph_nodes > 0);
    }
}
