//! The five workloads: their configurations and circuits, the untraced pass
//! (the public flow entry points, timed from outside) and the traced pass
//! (the same flow recomposed from the layers' public functions, one span per
//! call), plus the probes that give layers without a span of their own a
//! number.
//!
//! Every public function of the repository the harness calls is listed in
//! the README next to this file; a signature change there breaks the build
//! here, which is the point.

use crate::inputs::{self, Gen};
use crate::trace::Tracer;
use aig::{Aig, FxHasher, SimVector};
use cec::{AigCnf, CecResult, SatSweeper};
use choices::{
    egraph_to_choices_with_selection, BoolNode, ChoiceAig, ChoiceConfig, ChoiceCost, ClassSelection,
};
use egraph::{Runner, RunnerLimits, Scheduler, StopReason};
use emorphic::extract::sa::SaOptions;
use emorphic::extract::{
    try_selection_cost, BottomUpEngine, ExtractionCost, ExtractionEngine, ExtractorKind,
};
use emorphic::flow::{
    emorphic_flow, emorphic_map_flow, extract_network, map_network, prepare_network,
    saturate_network, FlowConfig, MapFlowConfig, MapObjective,
};
use emorphic::windowed::{saturate_windows, WindowReport};
use emorphic::{aig_to_egraph, all_rules, FlowCheckpoint};
use emorphic_server::{JobRequest, JobState, JobStatus, ServerOptions, SynthesisServer};
use sat::{Lit as SLit, SatResult, Solver};
use std::hash::Hasher;
use std::time::Instant;
use techmap::cell::{try_map_to_cells, try_map_to_cells_with_choices, Netlist};
use techmap::cuts::{enumerate_cuts, enumerate_cuts_with_choices};
use techmap::{CutsOptions, Qor};
use window::WindowOptions;

/// Times each cold request is resubmitted in the warm phase of `serve-mix`.
const WARM_RESUBMISSIONS: usize = 50;
/// Conflict budget per query of the SAT probe: it measures propagation
/// throughput on the miter CNF, not whether plain CDCL can close it.
const SAT_PROBE_CONFLICTS: u64 = 50;

/// Which driver a workload runs its circuits through.
pub enum Flow {
    /// `emorphic_map_flow` (monolithic, or windowed when partitioning is set).
    Map(MapFlowConfig),
    /// `emorphic_flow`, the paper's Table II flow.
    Resyn(FlowConfig),
    /// A fresh `SynthesisServer` per pass: cold, re-extract and warm batches.
    Serve(FlowConfig),
}

pub struct Workload {
    pub flow: Flow,
    pub circuits: Vec<Gen>,
    /// Run the per-output SAT probe (only where verification dominates).
    pub sat_probe: bool,
}

/// `crates/bench`'s `flow_config_for(Small)`, pinned here so that editing
/// that helper cannot silently change the benchmark, with the thread counts
/// fixed instead of read from the host.
fn base_flow(threads: usize) -> FlowConfig {
    FlowConfig {
        rounds: 3,
        rewrite_iterations: 4,
        node_limit: 60_000,
        match_limit: 1_000,
        search_threads: threads,
        sa: SaOptions {
            iterations: 3,
            threads,
            ..SaOptions::default()
        },
        ..FlowConfig::paper()
    }
}

fn map_config(flow: FlowConfig) -> MapFlowConfig {
    MapFlowConfig {
        flow,
        ..MapFlowConfig::paper()
    }
}

/// Builds a workload by name; `smoke` swaps in circuits of width at most 6.
pub fn build(name: &str, smoke: bool) -> Option<Workload> {
    let (flow, circuits, sat_probe) = match name {
        "saturate-deep" => (
            Flow::Map(map_config(FlowConfig {
                rewrite_iterations: 7,
                node_limit: 300_000,
                match_limit: 8_000,
                ..base_flow(2)
            })),
            vec![Gen::Multiplier(12), Gen::Arbiter(14)],
            false,
        ),
        "map-verify" => (
            Flow::Map(map_config(FlowConfig {
                rewrite_iterations: 5,
                node_limit: 200_000,
                match_limit: 2_000,
                ..base_flow(2)
            })),
            vec![Gen::Divider(16), Gen::Arbiter(32)],
            true,
        ),
        "resyn-paper" => {
            // 32 annealing iterations instead of `Small`'s 3: every SA
            // candidate is mapped, so extraction is the largest share of
            // the pass only once the anneal runs that long. A third of
            // `Small`'s node limit keeps `egraph` under 5 % on circuits
            // small enough for seven passes to fit into a run.
            let mut flow = base_flow(2).with_extractor(ExtractorKind::Sa);
            flow.sa.iterations = 32;
            flow.node_limit = 20_000;
            (
                Flow::Resyn(flow),
                vec![Gen::Arbiter(28), Gen::Log2(40)],
                false,
            )
        }
        "windowed-scale" => (
            Flow::Map(map_config(
                base_flow(2).with_partitioning(WindowOptions::default()),
            )),
            vec![Gen::Multiplier(32), Gen::Adder(192), Gen::Divider(16)],
            false,
        ),
        "serve-mix" => (
            Flow::Serve(base_flow(1).with_extractor(ExtractorKind::Sa)),
            vec![
                Gen::Adder(48),
                Gen::Log2(32),
                Gen::MemCtrl(24),
                Gen::Crossbar(12, 12),
            ],
            false,
        ),
        _ => return None,
    };
    let workload = Workload {
        flow,
        circuits,
        sat_probe,
    };
    Some(if smoke { workload.smoke() } else { workload })
}

impl Workload {
    /// `--smoke`: the same drivers and code paths on circuits of width at
    /// most 6, with limits small enough for an unoptimised test build.
    fn smoke(self) -> Workload {
        let shrink = |flow: FlowConfig| FlowConfig {
            rounds: 2,
            rewrite_iterations: 2,
            node_limit: 3_000,
            match_limit: 100,
            sa: SaOptions {
                threads: flow.sa.threads,
                ..SaOptions::fast()
            },
            ..flow
        };
        Workload {
            flow: match self.flow {
                Flow::Map(config) => Flow::Map(MapFlowConfig {
                    flow: shrink(config.flow.clone()),
                    ..config
                }),
                Flow::Resyn(config) => Flow::Resyn(shrink(config)),
                Flow::Serve(config) => Flow::Serve(shrink(config)),
            },
            circuits: self.circuits.into_iter().map(Gen::smoke).collect(),
            sat_probe: self.sat_probe,
        }
    }
}

/// One generated circuit with the harness's seeded reference outputs.
pub struct Input {
    pub label: String,
    pub aig: Aig,
    patterns: Vec<SimVector>,
    reference: Vec<SimVector>,
}

pub struct Setup {
    pub workload: Workload,
    pub inputs: Vec<Input>,
    /// Seconds spent inside the benchgen generators.
    pub generate_s: f64,
}

impl Setup {
    pub fn input_ands(&self) -> usize {
        self.inputs.iter().map(|i| i.aig.num_ands()).sum()
    }
}

/// Everything that happens before the first pass: configuration (which
/// builds the cell library), generation, and the reference simulation of
/// each input on the seed's patterns.
pub fn setup(name: &str, seed: u64, smoke: bool) -> Option<Setup> {
    let workload = build(name, smoke)?;
    let mut generate_s = 0.0;
    let inputs = workload
        .circuits
        .iter()
        .enumerate()
        .map(|(i, gen)| {
            let t = Instant::now();
            let aig = gen.generate();
            generate_s += t.elapsed().as_secs_f64();
            let circuit_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64;
            let patterns = inputs::patterns(aig.num_inputs(), circuit_seed);
            let reference = inputs::simulate_aig(&aig, &patterns);
            Input {
                label: gen.label(),
                aig,
                patterns,
                reference,
            }
        })
        .collect();
    Some(Setup {
        workload,
        inputs,
        generate_s,
    })
}

/// The checked result of one operation (a circuit, or a server job).
#[derive(Debug, Clone)]
pub struct Outcome {
    pub label: String,
    /// `[area_um2, delay_ps, levels]` when the operation produced a netlist
    /// that counts towards the QoR geomeans.
    pub qor: Option<[f64; 3]>,
    /// Digest of the result (QoR bits plus netlist or final network).
    pub digest: u64,
    /// Seconds inside the program for this operation (0 for a server job:
    /// `run_batch` times the batch, not its jobs).
    pub seconds: f64,
    /// Why the operation counts as failed (empty = succeeded).
    pub failures: Vec<String>,
}

impl Outcome {
    fn failed(label: &str, why: String) -> Self {
        Outcome {
            label: label.to_string(),
            qor: None,
            digest: 0,
            seconds: 0.0,
            failures: vec![why],
        }
    }
}

/// One pass over the workload's circuits.
pub struct Pass {
    /// Seconds inside the program (flow calls, or server start to shutdown),
    /// excluding the harness's own checks.
    pub program_s: f64,
    pub outcomes: Vec<Outcome>,
}

impl Pass {
    /// A pass whose operations are circuits run one after another.
    fn of_circuits(outcomes: Vec<Outcome>) -> Self {
        Pass {
            program_s: outcomes.iter().map(|o| o.seconds).sum(),
            outcomes,
        }
    }
}

fn qor_triple(qor: &Qor) -> [f64; 3] {
    [qor.area_um2, qor.delay_ps, f64::from(qor.levels)]
}

fn hash_qor(h: &mut FxHasher, qor: &Qor) {
    h.write_u64(qor.area_um2.to_bits());
    h.write_u64(qor.delay_ps.to_bits());
    h.write_u32(qor.levels);
    h.write_usize(qor.gates);
}

fn digest_netlist(qor: &Qor, netlist: &Netlist) -> u64 {
    let mut h = FxHasher::default();
    hash_qor(&mut h, qor);
    for gate in &netlist.gates {
        h.write_usize(gate.cell);
        h.write_u32(gate.root.0);
        for leaf in &gate.leaves {
            h.write_u32(leaf.0);
        }
        h.write_u64(gate.truth);
    }
    for arrival in netlist.gate_arrivals_ps() {
        h.write_u64(arrival.to_bits());
    }
    h.write_usize(netlist.num_inverters);
    h.finish()
}

fn digest_network(qor: &Qor, aig: &Aig) -> u64 {
    let mut h = FxHasher::default();
    hash_qor(&mut h, qor);
    for id in aig.and_ids() {
        let (f0, f1) = aig.fanins(id);
        h.write_u32(f0.raw());
        h.write_u32(f1.raw());
    }
    for po in aig.outputs() {
        h.write_u32(po.raw());
    }
    h.finish()
}

fn check_function(
    input: &Input,
    outputs: Result<Vec<SimVector>, String>,
    failures: &mut Vec<String>,
) {
    match outputs {
        Ok(outputs) if outputs == input.reference => {}
        Ok(_) => failures.push("harness simulation disagrees with the input".into()),
        Err(e) => failures.push(e),
    }
}

fn check_windows(report: Option<&WindowReport>, failures: &mut Vec<String>) {
    match report {
        Some(report) => {
            if let Some(e) = &report.error {
                failures.push(format!("windowed path failed: {e}"));
            }
            if report.windows == 0 {
                failures.push("windowed run carved zero windows".into());
            }
        }
        None => failures.push("windowed run returned no window report".into()),
    }
}

const TIME_LIMITED: &str = "saturation stopped on the wall-clock limit";

/// The untraced flows do not return the stop reason, so elapsed time is the
/// test there: no workload sets `saturation_time_limit`, every runner has
/// `RunnerLimits::default()`'s, and a saturation inside an operation (or
/// server phase) shorter than that limit cannot have been cut by it.
fn reached_time_limit(seconds: f64) -> bool {
    seconds >= RunnerLimits::default().time_limit.as_secs_f64()
}

fn map_outcome(
    input: &Input,
    qor: &Qor,
    netlist: &Netlist,
    verified: bool,
    window: Option<Option<&WindowReport>>,
) -> Outcome {
    let mut failures = Vec::new();
    if !verified {
        failures.push("result is not verified".into());
    }
    check_function(
        input,
        inputs::simulate_netlist(netlist, &input.patterns),
        &mut failures,
    );
    if let Some(report) = window {
        check_windows(report, &mut failures);
    }
    Outcome {
        label: input.label.clone(),
        qor: Some(qor_triple(qor)),
        digest: digest_netlist(qor, netlist),
        seconds: 0.0,
        failures,
    }
}

fn network_outcome(
    label: &str,
    input: &Input,
    qor: &Qor,
    final_aig: &Aig,
    verified: bool,
    time_limited: bool,
) -> Outcome {
    let mut failures = Vec::new();
    if !verified {
        failures.push("result is not verified".into());
    }
    if time_limited {
        failures.push(TIME_LIMITED.into());
    }
    check_function(
        input,
        Ok(inputs::simulate_aig(final_aig, &input.patterns)),
        &mut failures,
    );
    Outcome {
        label: label.to_string(),
        qor: Some(qor_triple(qor)),
        digest: digest_network(qor, final_aig),
        seconds: 0.0,
        failures,
    }
}

// ---------------------------------------------------------------------------
// Untraced passes: the public flow entry points, timed from outside.
// ---------------------------------------------------------------------------

pub fn run_untraced(setup: &Setup) -> Pass {
    match &setup.workload.flow {
        Flow::Map(config) => Pass::of_circuits(
            setup
                .inputs
                .iter()
                .map(|input| {
                    let t = Instant::now();
                    let result = emorphic_map_flow(&input.aig, config);
                    let seconds = t.elapsed().as_secs_f64();
                    let mut outcome = match result {
                        Ok(r) => map_outcome(
                            input,
                            &r.qor,
                            &r.netlist,
                            r.verified,
                            config.flow.partitioning.as_ref().map(|_| r.window.as_ref()),
                        ),
                        Err(e) => Outcome::failed(&input.label, format!("flow error: {e}")),
                    };
                    if reached_time_limit(seconds) {
                        outcome.failures.push(TIME_LIMITED.into());
                    }
                    Outcome { seconds, ..outcome }
                })
                .collect(),
        ),
        Flow::Resyn(config) => Pass::of_circuits(
            setup
                .inputs
                .iter()
                .map(|input| {
                    let t = Instant::now();
                    let r = emorphic_flow(&input.aig, config);
                    let seconds = t.elapsed().as_secs_f64();
                    let outcome = network_outcome(
                        &input.label,
                        input,
                        &r.qor,
                        &r.final_aig,
                        r.verified,
                        reached_time_limit(seconds),
                    );
                    Outcome { seconds, ..outcome }
                })
                .collect(),
        ),
        Flow::Serve(config) => serve_pass(setup, config, None),
    }
}

// ---------------------------------------------------------------------------
// serve-mix
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Cold,
    Reextract,
    Warm,
}

fn job_outcome(
    label: String,
    input: &Input,
    phase: Phase,
    status: Option<JobStatus>,
    cold_digest: Option<u64>,
    time_limited: bool,
) -> Outcome {
    let Some(status) = status else {
        return Outcome::failed(&label, "job vanished".into());
    };
    if status.state != JobState::Completed {
        return Outcome::failed(
            &label,
            format!("job ended {:?}: {:?}", status.state, status.error),
        );
    }
    let Some(result) = status.result else {
        return Outcome::failed(&label, "completed without a result".into());
    };
    let expected = match phase {
        Phase::Cold => (false, false),
        Phase::Reextract => (false, true),
        Phase::Warm => (true, false),
    };
    let digest = digest_network(&result.qor, &result.final_aig);
    if phase == Phase::Warm {
        // A warm hit serves the cold phase's object; its function was
        // checked there.
        let mut failures = Vec::new();
        if !status.cache_hit {
            failures.push("warm resubmission missed the result cache".into());
        }
        if cold_digest != Some(digest) {
            failures.push("warm result differs from the cold result".into());
        }
        return Outcome {
            label,
            qor: None,
            digest,
            seconds: 0.0,
            failures,
        };
    }
    let mut outcome = network_outcome(
        &label,
        input,
        &result.qor,
        &result.final_aig,
        result.verified,
        time_limited,
    );
    if (status.cache_hit, result.reused_checkpoint) != expected {
        outcome.failures.push(format!(
            "expected (cache hit, checkpoint restore) = {expected:?}, got ({}, {})",
            status.cache_hit, result.reused_checkpoint
        ));
    }
    outcome
}

/// One `serve-mix` pass. With a tracer, the three batches get spans and the
/// server's own counters are attached; the program under test is the same.
fn serve_pass(setup: &Setup, config: &FlowConfig, mut tracer: Option<&mut Tracer>) -> Pass {
    let reextract_config = config
        .clone()
        .with_extractor(ExtractorKind::GlobalGreedyDag);
    let requests = |config: &FlowConfig, copies: usize| -> Vec<JobRequest> {
        setup
            .inputs
            .iter()
            .flat_map(|input| {
                (0..copies).map(|_| JobRequest::new(input.aig.clone(), config.clone()))
            })
            .collect()
    };
    let batches = [
        (Phase::Cold, "server.cold_phase", requests(config, 1)),
        (
            Phase::Reextract,
            "server.reextract_phase",
            requests(&reextract_config, 1),
        ),
        (
            Phase::Warm,
            "server.warm_phase",
            requests(config, WARM_RESUBMISSIONS),
        ),
    ];

    let start = Instant::now();
    if let Some(t) = tracer.as_deref_mut() {
        t.set_circuit("server");
    }
    let root = tracer.as_deref_mut().map(|t| t.enter("pass.server"));
    let server = SynthesisServer::start(&ServerOptions { workers: 2 });
    let mut statuses = Vec::new();
    for (phase, span_name, batch) in batches {
        let jobs = batch.len();
        let span = tracer.as_deref_mut().map(|t| t.enter(span_name));
        let batch_start = Instant::now();
        let answers = server.run_batch(batch);
        let time_limited = reached_time_limit(batch_start.elapsed().as_secs_f64());
        if let (Some(t), Some(span)) = (tracer.as_deref_mut(), span) {
            t.exit(span);
            if phase == Phase::Warm {
                t.count(span, "server.warm_jobs", jobs as f64);
            }
        }
        statuses.push((phase, answers, time_limited));
    }
    let stats = server.stats();
    drop(server);
    if let (Some(t), Some(root)) = (tracer.as_deref_mut(), root) {
        t.exit(root);
        t.count(root, "server.saturations", stats.saturations as f64);
        t.count(root, "server.checkpoint_hits", stats.checkpoint_hits as f64);
        t.count(root, "server.cache_hits", stats.cache_hits as f64);
    }
    let program_s = start.elapsed().as_secs_f64();

    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut cold_digests: Vec<u64> = Vec::new();
    for (phase, answers, time_limited) in statuses {
        let copies = answers.len() / setup.inputs.len().max(1);
        for (j, status) in answers.into_iter().enumerate() {
            let index = j / copies.max(1);
            let input = &setup.inputs[index];
            let tag = match phase {
                Phase::Cold => "cold",
                Phase::Reextract => "reextract",
                Phase::Warm => "warm",
            };
            let outcome = job_outcome(
                format!("{}/{tag}", input.label),
                input,
                phase,
                status,
                cold_digests.get(index).copied(),
                time_limited,
            );
            if phase == Phase::Cold {
                cold_digests.push(outcome.digest);
            }
            outcomes.push(outcome);
        }
    }
    if let (Some(t), Some(root)) = (tracer, root) {
        let failed = outcomes.iter().filter(|o| !o.failures.is_empty()).count();
        t.count(root, "server.jobs_failed", failed as f64);
    }
    Pass {
        program_s,
        outcomes,
    }
}

// ---------------------------------------------------------------------------
// Traced passes: the same flows recomposed from the layers' public
// functions. The same-program guard in `main` compares each outcome's digest
// with the untraced pass, so a drift between this recomposition and the real
// flow is a failed operation, not a silently wrong breakdown.
// ---------------------------------------------------------------------------

pub fn run_traced(setup: &Setup, tracer: &mut Tracer) -> Pass {
    match &setup.workload.flow {
        Flow::Map(config) => Pass::of_circuits(
            setup
                .inputs
                .iter()
                .map(|input| {
                    tracer.set_circuit(&input.label);
                    let root = tracer.enter("pass.circuit");
                    let outcome =
                        traced_map_flow(tracer, root, input, config, setup.workload.sat_probe);
                    Outcome {
                        seconds: tracer.spans[root].duration_us() as f64 / 1e6,
                        ..outcome
                    }
                })
                .collect(),
        ),
        Flow::Resyn(config) => Pass::of_circuits(
            setup
                .inputs
                .iter()
                .map(|input| {
                    tracer.set_circuit(&input.label);
                    let root = tracer.enter("pass.circuit");
                    let outcome = traced_resyn_flow(tracer, root, input, config, false);
                    fingerprint_probe(tracer, &input.aig);
                    Outcome {
                        seconds: tracer.spans[root].duration_us() as f64 / 1e6,
                        ..outcome
                    }
                })
                .collect(),
        ),
        Flow::Serve(config) => {
            let mut pass = serve_pass(setup, config, Some(tracer));
            // The server is a second driver over prepare → saturate →
            // extract → verify → map. Recomposing each cold job serially
            // (probe spans, outside `pass.server`) gives the layers their
            // numbers; the guard pins the recomposition to what the server
            // actually served.
            for (input, served) in setup.inputs.iter().zip(pass.outcomes.iter_mut()) {
                tracer.set_circuit(&input.label);
                let root = tracer.enter("probe.cold_job");
                let probe = traced_resyn_flow(tracer, root, input, config, true);
                if probe.digest != served.digest {
                    served
                        .failures
                        .push("recomposed cold job differs from the served result".into());
                }
                served.failures.extend(probe.failures);
                fingerprint_probe(tracer, &input.aig);
            }
            pass
        }
    }
}

/// `windowed_choice_space`, recomposed: one span on `saturate_windows`, with
/// the phase times its `WindowReport` states attached as self-reports.
fn traced_windowed_space(
    t: &mut Tracer,
    aig: &Aig,
    opts: &WindowOptions,
    flow: &FlowConfig,
    choice_config: &ChoiceConfig,
) -> Result<(ChoiceAig, WindowReport), String> {
    let host = aig.strash_copy();
    let (span, result) = t.time("core.windowed", || {
        saturate_windows(&host, opts, flow, choice_config)
    });
    let (stitched, _partition, report) = result.map_err(|e| {
        t.count(span, "window.fallbacks", 1.0);
        e.to_string()
    })?;
    for (key, time) in [
        ("window.partition_s", report.partition_time),
        ("core.windowed_saturate_s", report.saturation_time),
        ("window.stitch_s", report.stitch_time),
    ] {
        t.report(span, key, time.as_secs_f64());
    }
    let stats = &stitched.stats;
    for (key, value) in [
        ("window.windows", report.windows),
        ("window.covered_ands", report.covered_ands),
        ("window.skipped", report.windows_skipped),
        ("window.stitched_classes", report.classes_exported),
        ("core.windowed_enodes", report.egraph_nodes),
        ("choices.classes", stats.classes),
        ("choices.alternatives", stats.alternatives),
        (
            "choices.rejected",
            stats.dropped_ordering + stats.dropped_duplicate,
        ),
        (
            "window.fallbacks",
            usize::from(report.error.is_some() || report.windows == 0),
        ),
    ] {
        t.count(span, key, value as f64);
    }
    Ok((stitched.network, report))
}

/// `monolithic_choice_space`, recomposed: convert, saturate, extract (the
/// bottom-up engine, the only one the map-flow workloads use), export.
/// Returns the choice network and whether saturation hit the time limit.
fn traced_monolithic_space(
    t: &mut Tracer,
    aig: &Aig,
    config: &MapFlowConfig,
    choice_config: &ChoiceConfig,
) -> Result<(ChoiceAig, bool), String> {
    let flow = &config.flow;
    let strashed = aig.strash_copy();
    let (span, conversion) = t.time("core.convert", || aig_to_egraph(&strashed));
    t.count(
        span,
        "core.convert_enodes",
        conversion.egraph.total_nodes() as f64,
    );
    let emorphic::ConversionResult {
        egraph: initial,
        roots,
        name,
        input_names,
        output_names,
        ..
    } = conversion;
    let (span, runner) = t.time("egraph.saturate", || {
        Runner::with_egraph(initial)
            .with_iter_limit(flow.rewrite_iterations)
            .with_node_limit(flow.node_limit)
            .with_scheduler(Scheduler::Backoff {
                match_limit: flow.match_limit,
                ban_length: 2,
            })
            .with_search_threads(flow.search_threads)
            .run(&all_rules())
    });
    let time_limited = report_saturation(
        t,
        span,
        &runner.iterations,
        runner.stop_reason.as_ref(),
        runner.egraph.total_nodes(),
        runner.egraph.num_classes(),
    );
    let egraph = runner.egraph;
    let roots: Vec<egraph::Id> = roots.iter().map(|&r| egraph.find(r)).collect();

    assert_eq!(
        config.extractor,
        ExtractorKind::BottomUp,
        "the traced map flow recomposes the bottom-up engine only"
    );
    let structural_cost = match config.choices.cost {
        ChoiceCost::Size => ExtractionCost::Size,
        ChoiceCost::Depth => ExtractionCost::Depth,
    };
    let (span, extraction) = t.time("core.extract", || {
        let result =
            BottomUpEngine::new(structural_cost).extract(&egraph, &roots, &flow.extract_budget);
        // The flow scores the selection for its `EngineReport` right here;
        // repeated so the recomposition does the same work.
        if let Ok(extraction) = &result {
            for kind in [ExtractionCost::Size, ExtractionCost::Depth] {
                let _ = std::hint::black_box(try_selection_cost(
                    &egraph,
                    &extraction.selection,
                    &roots,
                    kind,
                ));
            }
        }
        result
    });
    let extraction = extraction.map_err(|e| e.to_string())?;
    t.count(
        span,
        "core.extract_nodes_evaluated",
        extraction.stats.nodes_evaluated as f64,
    );
    // `extraction_to_class_selection`.
    let mut best = egraph::FxHashMap::default();
    for (&id, node) in &extraction.selection.choices {
        if let Some(expr) = node.as_bool() {
            best.insert(id, expr.map_children(|c| egraph.find(c)));
        }
    }
    let selection = ClassSelection {
        best,
        costs: extraction.class_costs.clone(),
    };
    let (span, exported) = t.time("choices.export", || {
        egraph_to_choices_with_selection(
            &egraph,
            &roots,
            &input_names,
            &output_names,
            &name,
            choice_config,
            &selection,
        )
    });
    let (network, export) = exported.map_err(|e| e.to_string())?;
    t.count(span, "choices.classes", export.classes as f64);
    t.count(span, "choices.alternatives", export.alternatives as f64);
    t.count(span, "choices.rejected", export.rejected as f64);
    Ok((network, time_limited))
}

/// `emorphic_map_flow`, recomposed: the choice space (monolithic or
/// windowed), then `map_choice_space`. Closes `root`, then runs the probes.
fn traced_map_flow(
    t: &mut Tracer,
    root: usize,
    input: &Input,
    config: &MapFlowConfig,
    sat_probe: bool,
) -> Outcome {
    let aig = &input.aig;
    let flow = &config.flow;
    let choice_config = ChoiceConfig {
        max_choices: if config.use_choices {
            config.choices.max_choices
        } else {
            1
        },
        cost: config.choices.cost,
    };
    let space = match &flow.partitioning {
        Some(opts) => traced_windowed_space(t, aig, opts, flow, &choice_config)
            .map(|(network, report)| (network, false, Some(report))),
        None => traced_monolithic_space(t, aig, config, &choice_config)
            .map(|(network, time_limited)| (network, time_limited, None)),
    };
    let (network, time_limited, window_report) = match space {
        Ok(space) => space,
        Err(e) => {
            t.exit(root);
            return Outcome::failed(&input.label, format!("flow error: {e}"));
        }
    };

    // `map_choice_space`.
    let repr_network = network.repr_network();
    let (_, base) = t.time("techmap.map_base", || {
        try_map_to_cells(&repr_network, &flow.library, &flow.map_options)
    });
    let mut netlist = match base {
        Ok(netlist) => netlist,
        Err(e) => {
            t.exit(root);
            return Outcome::failed(&input.label, format!("flow error: {e}"));
        }
    };
    let mut used_choices = false;
    if config.use_choices && network.num_classes() > 0 {
        let (span, mapped) = t.time("techmap.map_choice", || {
            try_map_to_cells_with_choices(&network, &flow.library, &flow.map_options)
        });
        if let Ok(choice_netlist) = mapped {
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
                t.count(span, "techmap.choice_wins", 1.0);
            }
        }
    }
    let mapped_source: &Aig = if used_choices {
        network.aig()
    } else {
        &repr_network
    };
    let mut verified = true;
    let mut mapped_aig = None;
    if flow.verify {
        let resynthesized = netlist.to_aig(mapped_source);
        let (span, proved) = t.time("cec.verify", || {
            cec::check_equivalence_swept(aig, &resynthesized, &flow.cec, &flow.sweep)
                .is_equivalent()
        });
        verified = proved;
        t.count(span, "cec.unknown", f64::from(u8::from(!proved)));
        mapped_aig = Some(resynthesized);
    }
    let mut qor = netlist.qor();
    qor.name = aig.name().to_string();
    t.exit(root);
    t.count(root, "techmap.gates", netlist.num_gates() as f64);

    let mut outcome = map_outcome(
        input,
        &qor,
        &netlist,
        verified,
        flow.partitioning.as_ref().map(|_| window_report.as_ref()),
    );
    if time_limited {
        outcome.failures.push(TIME_LIMITED.into());
    }

    // Probes: repeat a layer's work outside the circuit span to give it a
    // number of its own. They never run in an untraced pass.
    let cut_options = CutsOptions {
        cut_size: flow.map_options.cut_size.min(4),
        cut_limit: flow.map_options.cut_limit,
    };
    let (span, cuts) = t.time("techmap.cuts_probe", || {
        enumerate_cuts_with_choices(&network, &cut_options).total_cuts()
    });
    t.count(span, "techmap.cuts", cuts as f64);
    if let Some(mapped_aig) = &mapped_aig {
        sweep_probe(t, aig, mapped_aig, &flow.sweep);
        if sat_probe && !sat_probe_agrees(t, aig, mapped_aig) {
            outcome
                .failures
                .push("SAT probe found the verified result to differ".into());
        }
    }
    fingerprint_probe(t, aig);
    outcome
}

/// Attaches the saturation self-reports to `span`; returns whether the run
/// was cut by the wall-clock limit.
fn report_saturation(
    t: &mut Tracer,
    span: usize,
    iterations: &[egraph::IterationReport],
    stop_reason: Option<&StopReason>,
    enodes: usize,
    eclasses: usize,
) -> bool {
    let secs = |f: fn(&egraph::IterationReport) -> std::time::Duration| -> f64 {
        iterations.iter().map(|i| f(i).as_secs_f64()).sum()
    };
    let search = secs(|i| i.search_time);
    let rebuild = secs(|i| i.rebuild_time);
    let elapsed = secs(|i| i.elapsed);
    t.report(span, "egraph.search_s", search);
    t.report(span, "egraph.rebuild_s", rebuild);
    t.report(
        span,
        "egraph.apply_s",
        (elapsed - search - rebuild).max(0.0),
    );
    t.count(span, "egraph.enodes", enodes as f64);
    t.count(span, "egraph.eclasses", eclasses as f64);
    t.count(span, "egraph.iterations", iterations.len() as f64);
    let rule_unions: usize = iterations
        .iter()
        .flat_map(|i| i.applied.iter().map(|(_, n)| *n))
        .sum();
    t.count(span, "egraph.rule_unions", rule_unions as f64);
    let rebuild_unions: usize = iterations.iter().map(|i| i.rebuild_unions).sum();
    t.count(span, "egraph.rebuild_unions", rebuild_unions as f64);
    let time_limited = stop_reason == Some(&StopReason::TimeLimit);
    t.count(
        span,
        "egraph.time_limit_stops",
        f64::from(u8::from(time_limited)),
    );
    time_limited
}

/// `emorphic_flow` (monolithic), recomposed from its public phase functions;
/// with `served` set, the variant the job server runs (swept CEC against the
/// submitted circuit). Closes `root`, then probes the checkpoint layer.
fn traced_resyn_flow(
    t: &mut Tracer,
    root: usize,
    input: &Input,
    config: &FlowConfig,
    served: bool,
) -> Outcome {
    let aig = &input.aig;
    let (span, current) = t.time("logic-opt.prepare", || prepare_network(aig, config));
    t.count(
        span,
        "logic-opt.prepare_ands_out",
        current.num_ands() as f64,
    );

    let (span, state) = t.time("core.saturate_network", || {
        saturate_network(&current, config)
    });
    t.report(span, "core.convert_s", state.conversion_time.as_secs_f64());
    t.report(
        span,
        "egraph.saturate_s",
        state.saturation_time.as_secs_f64(),
    );
    let time_limited = report_saturation(
        t,
        span,
        &state.saturation,
        state.stop_reason.as_ref(),
        state.egraph.total_nodes(),
        state.egraph.num_classes(),
    );

    let (span, (extracted, engines)) = t.time("core.extract", || extract_network(&state, config));
    let evaluated: usize = engines.iter().map(|e| e.stats.nodes_evaluated).sum();
    t.count(span, "core.extract_nodes_evaluated", evaluated as f64);

    let mut resynthesized = extracted.unwrap_or_else(|| current.clone());
    let mut verified = true;
    if config.verify {
        let (span, verdict) = t.time("cec.verify", || {
            if served {
                cec::check_equivalence_swept(aig, &resynthesized, &config.cec, &config.sweep)
            } else {
                cec::check_equivalence(&current, &resynthesized, &config.cec)
            }
        });
        match verdict {
            CecResult::Equivalent => {}
            CecResult::NotEquivalent(_) => {
                verified = false;
                resynthesized = current.clone();
            }
            CecResult::Unknown => verified = false,
        }
        t.count(span, "cec.unknown", f64::from(u8::from(!verified)));
    }
    let (span, (final_aig, netlist)) =
        t.time("core.map_network", || map_network(&resynthesized, config));
    t.count(span, "techmap.gates", netlist.num_gates() as f64);
    let mut qor = netlist.qor();
    qor.name = aig.name().to_string();
    t.exit(root);

    // Probes. The checkpoint round-trip is the one the server's store makes
    // (capture, then restore from memory). `FlowCheckpoint::from_json` is
    // left out: the vendored JSON parser needs ~40 s for a 5 MB snapshot,
    // beyond any run's budget.
    let (span, (checkpoint, bytes)) = t.time("core.checkpoint_capture", || {
        let checkpoint = FlowCheckpoint::capture(&state);
        let bytes = checkpoint.to_json().len();
        (checkpoint, bytes)
    });
    t.count(span, "core.checkpoint_bytes", bytes as f64);
    let (_, restored) = t.time("core.checkpoint_restore", || checkpoint.restore());
    let cut_options = CutsOptions {
        cut_size: config.map_options.cut_size.min(4),
        cut_limit: config.map_options.cut_limit,
    };
    let (span, cuts) = t.time("techmap.cuts_probe", || {
        enumerate_cuts(&final_aig, &cut_options).total_cuts()
    });
    t.count(span, "techmap.cuts", cuts as f64);

    let mut outcome = network_outcome(
        &input.label,
        input,
        &qor,
        &final_aig,
        verified,
        time_limited,
    );
    match restored {
        Ok(restored) if restored.egraph.total_nodes() == state.egraph.total_nodes() => {}
        Ok(_) => outcome
            .failures
            .push("restored checkpoint has a different e-node count".into()),
        Err(e) => outcome
            .failures
            .push(format!("checkpoint round-trip failed: {e}")),
    }
    outcome
}

/// What `check_equivalence_swept` does before its final output queries.
fn sweep_probe(t: &mut Tracer, golden: &Aig, revised: &Aig, options: &cec::SweepOptions) {
    let (span, stats) = t.time("cec.sweep_probe", || {
        let stacked = aig::stack_over_shared_inputs(golden, revised, "_b");
        SatSweeper::new(options.clone()).sweep(&stacked).1
    });
    t.count(span, "cec.sweep_sat_calls", stats.sat_calls as f64);
    t.count(span, "cec.sweep_proved", stats.proved as f64);
    t.count(span, "cec.sweep_unknown", stats.unknown as f64);
    t.count(span, "cec.sweep_resimulations", stats.resimulations as f64);
    t.count(span, "cec.sweep_cex_splits", stats.cex_splits as f64);
}

/// The query plan `sat_qor` uses: both circuits Tseitin-encoded over shared
/// inputs, two assumption queries per output pair, on a fresh solver.
/// Returns `false` if any query found a distinguishing assignment.
fn sat_probe_agrees(t: &mut Tracer, golden: &Aig, revised: &Aig) -> bool {
    let root = t.enter("sat.probe");
    let mut solver = Solver::new();
    solver.set_conflict_budget(Some(SAT_PROBE_CONFLICTS));
    let shared: Vec<SLit> = (0..golden.num_inputs())
        .map(|_| SLit::pos(solver.new_var()))
        .collect();
    let a = AigCnf::encode(&mut solver, golden, Some(&shared));
    let b = AigCnf::encode(&mut solver, revised, Some(&shared));
    let (span, agrees) = t.time("sat.probe_solve", || {
        let mut agrees = true;
        for (&x, &y) in a.output_lits.iter().zip(&b.output_lits) {
            for assumptions in [[x, !y], [!x, y]] {
                agrees &= solver.solve_with_assumptions(&assumptions) != SatResult::Sat;
            }
        }
        agrees
    });
    let stats = solver.stats();
    t.count(span, "sat.probe_conflicts", stats.conflicts as f64);
    t.count(span, "sat.probe_decisions", stats.decisions as f64);
    t.count(span, "sat.probe_propagations", stats.propagations as f64);
    t.exit(root);
    agrees
}

fn fingerprint_probe(t: &mut Tracer, aig: &Aig) {
    t.time("aig.fingerprint", || {
        std::hint::black_box(aig.structural_fingerprint())
    });
}
