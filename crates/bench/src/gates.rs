//! The gate experiments over the flows: choice-aware mapping (area- and
//! delay-first), the extraction portfolio, windowed saturation, the
//! synthesis server and the audits. Every assertion is a named
//! [`Run::check`]; nothing here exits or panics on a violated contract.

use crate::{num, saturated, Run, Table};
use aig::io::{read_aiger, read_eqn, write_aiger, write_eqn};
use aig::{audit_aig, audit_aig_dag_only};
use audit::{AuditLevel, AuditReport};
use benchgen::{BenchCircuit, SuiteScale};
use cec::{check_equivalence_swept, AigCnf, CecOptions, CecResult, SweepOptions};
use emorphic::extract::sa::{SaEngine, SaOptions};
use emorphic::extract::{
    BottomUpEngine, ExtractBudget, ExtractionCost, ExtractionEngine, GlobalGreedyDagEngine,
    PortfolioEngine, PortfolioScorer, SlackAwareEngine,
};
use emorphic::flow::{emorphic_flow, FlowConfig, MapFlowResult, MapObjective};
use emorphic::{try_selection_to_aig, ExtractorKind};
use emorphic_server::{JobRequest, JobState, ServerOptions, SynthesisServer};
use sat::dimacs::CnfFormula;
use sat::{audit_solver, ClauseSink, Lit as SLit};
use std::time::Instant;
use techmap::cell::map_to_cells;
use techmap::library::asap7_like;
use techmap::MapOptions;
use window::WindowOptions;

/// Choice-aware vs choice-free mapping under the area-first objective.
pub(crate) fn choices(run: &mut Run) {
    choices_on_vs_off(run, MapObjective::Area);
}

/// Choice-aware vs choice-free mapping under the delay-first objective with
/// two area-recovery passes.
pub(crate) fn delay(run: &mut Run) {
    choices_on_vs_off(run, MapObjective::Delay);
}

/// Runs the map flow with choices off and on (saturation is deterministic,
/// so both see the same e-graph) and checks that both netlists are
/// CEC-verified, that "on" is never worse on the objective's primary metric
/// and, delay-first, that the worst slack is never negative.
fn choices_on_vs_off(run: &mut Run, objective: MapObjective) {
    let delay_first = objective == MapObjective::Delay;
    let mut config = run.map_config().with_objective(objective);
    if delay_first {
        config = config.with_recovery_passes(2);
    }
    let mut table = Table::new(&[
        "circuit",
        "ands",
        "area-off",
        "area-on",
        "delay-off",
        "delay-on",
        "ratio",
        "classes",
        "choices",
        "slack-on",
        "used",
        "time(s)",
    ]);
    let mut improved = 0usize;
    for BenchCircuit { name, aig } in run.suite() {
        eprintln!("[{}] {name}", run.experiment);
        let off = run.map_flow(&name, &aig, &config.clone().with_choices(false));
        let on = run.map_flow(&name, &aig, &config);
        let (Some(off), Some(on)) = (off, on) else {
            continue;
        };
        run.check("cec", &name, off.verified && on.verified, &[]);
        let (primary_off, primary_on) = if delay_first {
            (off.qor.delay_ps, on.qor.delay_ps)
        } else {
            (off.qor.area_um2, on.qor.area_um2)
        };
        run.check(
            if delay_first {
                "delay-never-worse"
            } else {
                "area-never-worse"
            },
            &name,
            primary_on <= primary_off + 1e-9,
            &[("on", primary_on), ("off", primary_off)],
        );
        if delay_first {
            run.check(
                "slack-never-negative",
                &name,
                on.worst_slack_ps >= -1e-9,
                &[("worst_slack_ps", on.worst_slack_ps)],
            );
        }
        improved += usize::from(primary_on < primary_off - 1e-9);
        table.row(vec![
            name,
            aig.num_ands().to_string(),
            num(off.qor.area_um2, 2),
            num(on.qor.area_um2, 2),
            num(off.qor.delay_ps, 2),
            num(on.qor.delay_ps, 2),
            num(primary_on / primary_off.max(1e-9), 4),
            on.export.classes.to_string(),
            on.export.alternatives.to_string(),
            num(on.worst_slack_ps, 2),
            if on.used_choices { "yes" } else { "no" }.into(),
            num((off.runtime + on.runtime).as_secs_f64(), 2),
        ]);
    }
    table.print(&format!(
        "choice-aware vs choice-free mapping, {objective:?}-first"
    ));
    println!("{improved} circuit(s) strictly improved by choices");
}

/// Every extraction engine on one shared saturated e-graph per circuit: each
/// extraction is audited and CEC-verified, and the portfolio (which races
/// the others under an area-first mapped scorer) must map no larger than
/// single-engine SA.
pub(crate) fn extract(run: &mut Run) {
    let (iterations, node_limit, sa) = match run.scale {
        SuiteScale::Tiny => (2, 8_000, SaOptions::fast()),
        SuiteScale::Small => (3, 30_000, SaOptions::fast()),
        SuiteScale::Default => (
            4,
            60_000,
            SaOptions::default().with_iterations(3).with_threads(2),
        ),
    };
    let library = asap7_like();
    let engines = || -> Vec<Box<dyn ExtractionEngine>> {
        vec![
            Box::new(BottomUpEngine::new(ExtractionCost::Size)),
            Box::new(GlobalGreedyDagEngine::new()),
            Box::new(SlackAwareEngine::new()),
            Box::new(SaEngine::new(sa.clone(), library.clone())),
        ]
    };
    let cec_options = CecOptions {
        conflict_budget: Some(100_000),
        ..CecOptions::default()
    };
    let budget = ExtractBudget::unlimited();
    let mut table = Table::new(&[
        "circuit",
        "engine",
        "ands",
        "area",
        "delay",
        "levels",
        "extract(s)",
    ]);
    for BenchCircuit { name, aig } in run.suite() {
        eprintln!("[extract] {name}");
        let state = saturated(&aig, iterations, node_limit, 500);
        let egraph_audit = egraph::audit_egraph(&state.egraph, AuditLevel::Paranoid);
        audit_check(
            run,
            "egraph-audit-clean",
            &name,
            &egraph_audit,
            egraph_audit.is_clean(),
        );
        let mut raced = engines();
        raced.push(Box::new(PortfolioEngine::new(engines()).with_scorer(
            PortfolioScorer::Mapped {
                library: library.clone(),
                delay_first: false,
            },
        )));
        let mut areas = std::collections::BTreeMap::new();
        for engine in &raced {
            let label = format!("{name}/{}", engine.name());
            let t = Instant::now();
            let extraction = engine.extract(&state.egraph, &state.roots, &budget);
            let extract_s = t.elapsed().as_secs_f64();
            let extracted = extraction.map_err(|e| e.to_string()).and_then(|x| {
                try_selection_to_aig(
                    &state.egraph,
                    &x.selection,
                    &state.roots,
                    &state.input_names,
                    &state.output_names,
                    &name,
                )
                .map_err(|e| e.to_string())
            });
            if let Err(e) = &extracted {
                eprintln!("{label}: {e}");
            }
            run.check("extraction-succeeds", &label, extracted.is_ok(), &[]);
            let Ok(extracted) = extracted else { continue };
            let aig_audit = audit_aig_dag_only(&extracted, AuditLevel::Paranoid);
            audit_check(
                run,
                "extracted-aig-audit-clean",
                &label,
                &aig_audit,
                aig_audit.is_clean(),
            );
            let qor = map_to_cells(&extracted, &library, &MapOptions::default()).qor();
            // Swept, as the flows verify: the monolithic check cannot close
            // the `hyp` miter within the budget.
            let verdict =
                check_equivalence_swept(&aig, &extracted, &cec_options, &SweepOptions::default());
            match &verdict {
                CecResult::Equivalent => {}
                CecResult::NotEquivalent(cex) => {
                    eprintln!("{label}: NOT equivalent (output {})", cex.output);
                }
                CecResult::Unknown => eprintln!("{label}: CEC inconclusive under budget"),
            }
            run.check(
                "cec",
                &label,
                verdict.is_equivalent(),
                &[
                    ("area_um2", qor.area_um2),
                    ("delay_ps", qor.delay_ps),
                    ("levels", f64::from(qor.levels)),
                    ("extract_s", extract_s),
                ],
            );
            areas.insert(engine.name(), qor.area_um2);
            table.row(vec![
                name.clone(),
                engine.name().into(),
                aig.num_ands().to_string(),
                num(qor.area_um2, 2),
                num(qor.delay_ps, 2),
                qor.levels.to_string(),
                num(extract_s, 3),
            ]);
        }
        if let (Some(&portfolio), Some(&sa)) = (areas.get("portfolio"), areas.get("sa")) {
            run.check(
                "portfolio-area<=sa",
                &name,
                portfolio <= sa + 1e-9,
                &[("portfolio", portfolio), ("sa", sa)],
            );
        }
    }
    table.print("mapped QoR per extraction engine, same saturated e-graph");
}

/// Records an audit report as a check of `gate`, printing its diagnostics
/// when it is not clean. The caller decides what passes: the artifact gates
/// demand a clean report, the `audit` experiment tolerates warnings.
pub(crate) fn audit_check(
    run: &mut Run,
    gate: &str,
    circuit: &str,
    report: &AuditReport,
    passed: bool,
) {
    if !report.is_clean() {
        eprintln!("{circuit}: {gate}:\n{report}");
    }
    run.check(
        gate,
        circuit,
        passed,
        &[
            ("checks", report.checks_run as f64),
            ("diagnostics", report.diagnostics.len() as f64),
            ("errors", report.num_errors() as f64),
        ],
    );
}

/// Windowed (partition, saturate per window, stitch) against monolithic
/// saturation through the map flow, on the scaling-class circuits.
pub(crate) fn window(run: &mut Run) {
    let circuits = run.scaling_suite();
    let mono_config = run.map_config();
    let mut win_config = mono_config.clone();
    win_config.flow = win_config.flow.with_partitioning(WindowOptions::default());

    let mut table = Table::new(&[
        "circuit", "mode", "ands", "area", "delay", "gates", "windows", "classes", "wall(s)",
    ]);
    // (name, ands, windowed wall, monolithic wall) for the sublinearity ratio.
    let mut walls: Vec<(String, usize, f64, f64)> = Vec::new();
    for BenchCircuit { name, aig } in &circuits {
        eprintln!("[window] {name}");
        let t = Instant::now();
        let mono = run.map_flow(&format!("{name}/monolithic"), aig, &mono_config);
        let mono_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let windowed = run.map_flow(&format!("{name}/windowed"), aig, &win_config);
        let windowed_s = t.elapsed().as_secs_f64();
        let (Some(mono), Some(windowed)) = (mono, windowed) else {
            continue;
        };
        for (mode, result, wall_s) in [
            ("monolithic", &mono, mono_s),
            ("windowed", &windowed, windowed_s),
        ] {
            let w = result.window.as_ref();
            run.check(
                "cec-proved",
                &format!("{name}/{mode}"),
                result.verified,
                &[
                    ("area_um2", result.qor.area_um2),
                    ("delay_ps", result.qor.delay_ps),
                    ("wall_s", wall_s),
                    ("windows", w.map_or(0, |w| w.windows) as f64),
                    ("windows_skipped", w.map_or(0, |w| w.windows_skipped) as f64),
                ],
            );
            table.row(vec![
                name.clone(),
                mode.into(),
                aig.num_ands().to_string(),
                num(result.qor.area_um2, 2),
                num(result.qor.delay_ps, 1),
                result.qor.gates.to_string(),
                w.map_or(0, |w| w.windows).to_string(),
                w.map_or(0, |w| w.classes_exported).to_string(),
                num(wall_s, 3),
            ]);
        }
        // A window report with a nonzero window count.
        let report = windowed.window.as_ref();
        run.check(
            "actually-windowed",
            name,
            report.is_some_and(|w| w.error.is_none() && w.windows > 0),
            &[("windows", report.map_or(0, |w| w.windows) as f64)],
        );
        run.check(
            "area<=monolithic",
            name,
            windowed.qor.area_um2 <= mono.qor.area_um2 + 1e-9,
            &[
                ("windowed", windowed.qor.area_um2),
                ("monolithic", mono.qor.area_um2),
            ],
        );
        walls.push((name.clone(), aig.num_ands(), windowed_s, mono_s));
    }
    table.print("windowed vs monolithic map flow");

    // The decomposition must be bit-identical at any worker count; checked
    // on the smallest circuit (a property of the algorithm, not the size).
    if let Some(circuit) = circuits.iter().min_by_key(|c| c.aig.num_ands()) {
        let mut results = Vec::new();
        for threads in [1, 4] {
            let mut config = win_config.clone();
            config.flow.search_threads = threads;
            let label = format!("{}/{threads}-threads", circuit.name);
            results.extend(run.map_flow(&label, &circuit.aig, &config));
        }
        let same = |a: &MapFlowResult, b: &MapFlowResult| {
            a.qor.area_um2.to_bits() == b.qor.area_um2.to_bits()
                && a.qor.delay_ps.to_bits() == b.qor.delay_ps.to_bits()
                && a.qor.gates == b.qor.gates
                && a.export == b.export
        };
        run.check(
            "identical-at-1-and-4-threads",
            &circuit.name,
            results.len() == 2 && same(&results[0], &results[1]),
            &[],
        );
    }

    // As circuits grow, windowed wall time must not grow faster than
    // monolithic. Full runs only: smoke circuits finish in milliseconds,
    // where the ratio is scheduler noise.
    let smallest = walls.iter().min_by_key(|w| w.1);
    let largest = walls.iter().max_by_key(|w| w.1);
    if let (Some(smallest), Some(largest), true) = (smallest, largest, walls.len() >= 2) {
        let windowed_ratio = largest.2 / smallest.2.max(1e-9);
        let monolithic_ratio = largest.3 / smallest.3.max(1e-9);
        println!(
            "wall({}) / wall({}) = {windowed_ratio:.2}x windowed, {monolithic_ratio:.2}x \
             monolithic{}",
            largest.0,
            smallest.0,
            if run.smoke {
                " (not gated in smoke)"
            } else {
                ""
            }
        );
        if !run.smoke {
            run.check(
                "sublinear-vs-monolithic",
                &format!("{}..{}", smallest.0, largest.0),
                windowed_ratio <= monolithic_ratio,
                &[
                    ("windowed_ratio", windowed_ratio),
                    ("monolithic_ratio", monolithic_ratio),
                ],
            );
        }
    }
}

/// A mixed workload through the persistent synthesis server: cold, warm
/// (identical resubmission) and re-extract (same saturation, other engine)
/// per circuit, then a batch of duplicates.
pub(crate) fn server(run: &mut Run) {
    let circuits = run.scaling_suite();
    let config = run.flow_config();
    let workers = 4;
    let server = SynthesisServer::start(&ServerOptions { workers });
    let mut table = Table::new(&[
        "circuit",
        "phase",
        "latency(ms)",
        "cache",
        "checkpoint",
        "area",
        "delay",
    ]);
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut min_warm_speedup = f64::INFINITY;
    let wall = Instant::now();

    // Serves one job and checks the serving contract on it; returns the
    // latency and whether it hit the cache / restored a checkpoint.
    let mut serve = |run: &mut Run, circuit: &BenchCircuit, config: FlowConfig, phase: &str| {
        let label = format!("{}/{phase}", circuit.name);
        let t = Instant::now();
        let id = server.submit(JobRequest::new(circuit.aig.clone(), config));
        let status = server.wait(id);
        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
        latencies_ms.push(latency_ms);
        let result = status
            .as_ref()
            .filter(|s| s.state == JobState::Completed)
            .and_then(|s| s.result.as_ref());
        run.check(
            "job-completes",
            &label,
            result.is_some(),
            &[("latency_ms", latency_ms)],
        );
        let Some(result) = result else {
            return (latency_ms, false, false);
        };
        run.check("server-verified", &label, result.verified, &[]);
        // Independent re-proof: the served netlist must be SAT-CEC
        // equivalent to the submitted circuit (swept, to close the
        // arithmetic miters the monolithic check cannot within the budget).
        let reproof = check_equivalence_swept(
            &circuit.aig,
            &result.final_aig,
            &CecOptions::default(),
            &SweepOptions::default(),
        );
        run.check("independent-cec", &label, reproof.is_equivalent(), &[]);
        let cache_hit = status.as_ref().is_some_and(|s| s.cache_hit);
        table.row(vec![
            circuit.name.clone(),
            phase.into(),
            num(latency_ms, 2),
            if cache_hit { "hit" } else { "miss" }.into(),
            if result.reused_checkpoint {
                "restored"
            } else {
                "fresh"
            }
            .into(),
            num(result.qor.area_um2, 2),
            num(result.qor.delay_ps, 1),
        ]);
        (latency_ms, cache_hit, result.reused_checkpoint)
    };

    for circuit in &circuits {
        eprintln!("[server] {}", circuit.name);
        let (cold_ms, _, _) = serve(run, circuit, config.clone(), "cold");
        let (warm_ms, warm_hit, _) = serve(run, circuit, config.clone(), "warm");
        run.check("warm-is-cache-hit", &circuit.name, warm_hit, &[]);
        let speedup = cold_ms / warm_ms.max(1e-6);
        min_warm_speedup = min_warm_speedup.min(speedup);
        run.check(
            "warm>=10x-cold",
            &circuit.name,
            speedup >= 10.0,
            &[("cold_ms", cold_ms), ("warm_ms", warm_ms)],
        );
        // The key is the config's value, not the object: a client that
        // builds its config per request hits the cache like one that clones.
        let rebuilt = run.flow_config();
        let (_, rebuilt_hit, _) = serve(run, circuit, rebuilt, "rebuilt");
        run.check(
            "rebuilt-config-is-cache-hit",
            &circuit.name,
            rebuilt_hit,
            &[],
        );
        // A different extraction engine is a different result key but the
        // same saturation key: the checkpoint must be restored and the
        // e-graph NOT rebuilt.
        let saturations_before = server.stats().saturations;
        let other_engine = config.clone().with_extractor(match config.extractor {
            ExtractorKind::BottomUp => ExtractorKind::GlobalGreedyDag,
            _ => ExtractorKind::BottomUp,
        });
        let (_, _, restored) = serve(run, circuit, other_engine, "re-extract");
        run.check(
            "re-extract-restores-checkpoint",
            &circuit.name,
            restored,
            &[],
        );
        run.check(
            "re-extract-runs-no-saturation",
            &circuit.name,
            server.stats().saturations == saturations_before,
            &[],
        );
    }
    table.print(&format!("synthesis server, {workers} workers"));

    // Batch of duplicates over the pool: every answer for one cache key must
    // be the same object (bit-identical serialization).
    if let Some(circuit) = circuits.first() {
        let requests = (0..2 * workers)
            .map(|_| JobRequest::new(circuit.aig.clone(), config.clone()))
            .collect();
        let netlists: Vec<String> = server
            .run_batch(requests)
            .into_iter()
            .flatten()
            .filter_map(|status| status.result)
            .map(|result| serde_json::to_string(&result.final_aig).expect("netlist serializes"))
            .collect();
        run.check(
            "batch-duplicates-identical",
            &circuit.name,
            netlists.len() == 2 * workers && netlists.windows(2).all(|w| w[0] == w[1]),
            &[("jobs", netlists.len() as f64)],
        );
    }

    let stats = server.stats();
    latencies_ms.sort_by(f64::total_cmp);
    let percentile = |p: f64| {
        let rank = (p * latencies_ms.len().saturating_sub(1) as f64).round() as usize;
        latencies_ms.get(rank).copied().unwrap_or(0.0)
    };
    println!(
        "served {} jobs at {:.2} jobs/s; p50 {:.2}ms p99 {:.2}ms; cache hit rate {:.0}%; \
         {} saturations, {} checkpoint restores; min warm speedup {min_warm_speedup:.0}x",
        stats.submitted,
        stats.submitted as f64 / wall.elapsed().as_secs_f64().max(1e-9),
        percentile(0.50),
        percentile(0.99),
        stats.cache_hits as f64 / (stats.submitted as f64).max(1.0) * 100.0,
        stats.saturations,
        stats.checkpoint_hits,
    );
}

/// The audits over parsed inputs (EQN and ASCII-AIGER round trips, all six
/// AIG rules), over both flows with every phase boundary audited in
/// place, and over the post-solve CDCL state of a DIMACS round trip. Only
/// error-severity diagnostics (or a parse/flow failure) fail the gate.
pub(crate) fn audit(run: &mut Run) {
    let level = if run.paranoid {
        AuditLevel::Paranoid
    } else {
        AuditLevel::PhaseBoundaries
    };
    println!("audit level {level:?}");
    let mut map_config = run.map_config();
    map_config.flow = map_config.flow.with_audit_level(level);
    let zero_errors = |run: &mut Run, label: &str, report: &AuditReport| {
        audit_check(run, "zero-errors", label, report, report.num_errors() == 0);
    };
    for BenchCircuit { name, aig } in run.suite() {
        eprintln!("[audit] {name}");
        type Parse = fn(&str) -> Result<aig::Aig, aig::AigError>;
        let formats: [(&str, String, Parse); 2] = [
            ("eqn-parse", write_eqn(&aig), read_eqn),
            ("aiger-parse", write_aiger(&aig), read_aiger),
        ];
        for (stage, text, parse) in formats {
            let label = format!("{name}/{stage}");
            match parse(&text) {
                Ok(parsed) => zero_errors(run, &label, &audit_aig(&parsed, level)),
                Err(e) => {
                    eprintln!("{label}: parse failure: {e}");
                    run.check("zero-errors", &label, false, &[]);
                }
            }
        }

        let flow = emorphic_flow(&aig, &map_config.flow);
        zero_errors(run, &format!("{name}/flow"), &flow.audit);
        if let Some(mapped) = run.map_flow(&name, &aig, &map_config) {
            zero_errors(run, &format!("{name}/map-flow"), &mapped.audit);
        }

        let mut cnf = CnfFormula::default();
        let inputs: Vec<SLit> = (0..aig.num_inputs())
            .map(|_| SLit::pos(cnf.new_var()))
            .collect();
        let image = AigCnf::encode(&mut cnf, &aig, Some(&inputs));
        let label = format!("{name}/dimacs-solve");
        match CnfFormula::parse(&cnf.to_dimacs()) {
            Ok(parsed) => {
                let mut solver = parsed.to_solver();
                let assumptions: Vec<SLit> = image.output_lits.iter().take(2).copied().collect();
                let _ = solver.solve_with_assumptions(&assumptions);
                zero_errors(run, &label, &audit_solver(&solver, level));
            }
            Err(e) => {
                eprintln!("{label}: parse failure: {e}");
                run.check("zero-errors", &label, false, &[]);
            }
        }
    }
}
