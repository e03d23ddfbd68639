//! The metric and workload catalog: every name the benchmark prints, with
//! unit, direction and (for end-to-end metrics) the regression bound.
//! `BENCHMARK.json` at the repository root repeats this table; a test keeps
//! the two equal.

/// How `ledger compare` treats a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Wall-clock derived (seconds, rates, memory): compared within a bound.
    Timed,
    /// A count or QoR value that repeats exactly for one seed.
    Exact,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen (end-to-end only).
    pub bound: Option<f64>,
    pub kind: Kind,
    pub meaning: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    bound: f64,
    kind: Kind,
    meaning: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
        bound: Some(bound),
        kind,
        meaning,
    }
}

const fn secs(name: &'static str, meaning: &'static str) -> Metric {
    Metric {
        name,
        unit: "s",
        higher_is_better: false,
        bound: None,
        kind: Kind::Timed,
        meaning,
    }
}

const fn rate(name: &'static str, unit: &'static str, meaning: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: true,
        bound: None,
        kind: Kind::Timed,
        meaning,
    }
}

const fn count(name: &'static str, higher_is_better: bool, meaning: &'static str) -> Metric {
    Metric {
        name,
        unit: "count",
        higher_is_better,
        bound: None,
        kind: Kind::Exact,
        meaning,
    }
}

/// What a user of the system sees, measured with tracing off.
pub const END_TO_END: &[Metric] = &[
    e2e(
        "setup_s",
        "s",
        0.25,
        Kind::Timed,
        "fastest set-up: library build, benchgen generation, reference simulation",
    ),
    e2e(
        "wall_s",
        "s",
        0.25,
        Kind::Timed,
        "fastest pass: every circuit AIG in to verified result out",
    ),
    e2e(
        "area_um2_geomean",
        "um2",
        0.01,
        Kind::Exact,
        "geomean mapped area over the circuits",
    ),
    e2e(
        "delay_ps_geomean",
        "ps",
        0.01,
        Kind::Exact,
        "geomean critical-path delay",
    ),
    e2e(
        "levels_geomean",
        "levels",
        0.01,
        Kind::Exact,
        "geomean netlist levels",
    ),
    e2e(
        "peak_rss_mb",
        "MB",
        0.15,
        Kind::Timed,
        "VmHWM of the process after set-up and the first pass",
    ),
];

/// Single-layer measurements of the traced pass.
pub const PER_LAYER: &[Metric] = &[
    // egraph
    secs(
        "egraph.saturate_s",
        "Runner::run (or reported saturation time)",
    ),
    secs(
        "egraph.search_s",
        "search phase, reported by IterationReport",
    ),
    secs("egraph.rebuild_s", "rebuild, reported by IterationReport"),
    secs(
        "egraph.apply_s",
        "iteration elapsed minus search and rebuild",
    ),
    count("egraph.enodes", true, "e-nodes after saturation"),
    count("egraph.eclasses", true, "e-classes after saturation"),
    count("egraph.iterations", true, "saturation iterations run"),
    count(
        "egraph.rule_unions",
        true,
        "unions applied by rewrite rules",
    ),
    count(
        "egraph.rebuild_unions",
        true,
        "unions added by congruence in rebuild",
    ),
    rate(
        "egraph.enodes_per_s",
        "1/s",
        "e-nodes after saturation per second of it",
    ),
    count(
        "egraph.time_limit_stops",
        false,
        "saturations stopped by the wall-clock limit",
    ),
    // core
    secs("core.convert_s", "aig_to_egraph"),
    count(
        "core.convert_enodes",
        false,
        "e-nodes right after conversion",
    ),
    secs(
        "core.extract_s",
        "extraction engine (extract_network or BottomUpEngine)",
    ),
    count(
        "core.extract_nodes_evaluated",
        false,
        "e-node cost evaluations",
    ),
    rate(
        "core.extract_evals_per_s",
        "1/s",
        "extraction evaluations per second",
    ),
    secs("core.map_network_s", "final st; dch; map round"),
    secs(
        "core.windowed_s",
        "saturate_windows: partition, per-window saturate, stitch",
    ),
    secs(
        "core.windowed_saturate_s",
        "per-window saturation, reported by WindowReport",
    ),
    count(
        "core.windowed_enodes",
        true,
        "e-nodes summed over window e-graphs",
    ),
    secs(
        "core.checkpoint_capture_s",
        "probe: FlowCheckpoint::capture + to_json",
    ),
    secs(
        "core.checkpoint_restore_s",
        "probe: FlowCheckpoint::restore",
    ),
    Metric {
        name: "core.checkpoint_bytes",
        unit: "B",
        higher_is_better: false,
        bound: None,
        kind: Kind::Exact,
        meaning: "probe: serialized checkpoint size",
    },
    secs(
        "core.glue_s",
        "circuit self time not covered by a layer span",
    ),
    // logic-opt
    secs(
        "logic-opt.prepare_s",
        "prepare_network: conventional rounds + SOP balancing",
    ),
    count(
        "logic-opt.prepare_ands_out",
        false,
        "ANDs handed to saturation",
    ),
    // choices
    secs("choices.export_s", "egraph_to_choices_with_selection"),
    count(
        "choices.classes",
        true,
        "choice classes with an alternative",
    ),
    count("choices.alternatives", true, "admitted alternatives"),
    count("choices.rejected", false, "rejected alternative candidates"),
    // techmap
    secs(
        "techmap.map_base_s",
        "try_map_to_cells on the representative network",
    ),
    secs("techmap.map_choice_s", "try_map_to_cells_with_choices"),
    count("techmap.gates", false, "gates in the kept netlists"),
    count(
        "techmap.choice_wins",
        true,
        "circuits where the choice-aware netlist was kept",
    ),
    secs(
        "techmap.cuts_probe_s",
        "probe: cut enumeration over the mapped network",
    ),
    count("techmap.cuts", false, "probe: cuts stored"),
    rate("techmap.cuts_per_s", "1/s", "probe: cuts per second"),
    // cec
    secs(
        "cec.verify_s",
        "check_equivalence[_swept] on the critical path",
    ),
    count(
        "cec.unknown",
        false,
        "verifications that ended without a proof",
    ),
    secs(
        "cec.sweep_probe_s",
        "probe: stack_over_shared_inputs + SatSweeper::sweep",
    ),
    count(
        "cec.sweep_sat_calls",
        false,
        "probe: SAT calls of the sweep",
    ),
    count("cec.sweep_proved", true, "probe: equivalences proved"),
    count("cec.sweep_unknown", false, "probe: budget-exhausted proofs"),
    count(
        "cec.sweep_resimulations",
        false,
        "probe: counterexample resimulations",
    ),
    count(
        "cec.sweep_cex_splits",
        true,
        "probe: class members split off by counterexamples",
    ),
    Metric {
        name: "cec.sat_calls_per_proved",
        unit: "ratio",
        higher_is_better: false,
        bound: None,
        kind: Kind::Exact,
        meaning: "probe: sweep SAT calls per proved equivalence",
    },
    // sat
    secs(
        "sat.probe_solve_s",
        "probe: per-output miter queries on a fresh Solver",
    ),
    count("sat.probe_conflicts", false, "probe: conflicts"),
    count("sat.probe_decisions", false, "probe: decisions"),
    count("sat.probe_propagations", false, "probe: propagations"),
    rate(
        "sat.propagations_per_s",
        "1/s",
        "probe: propagations per second",
    ),
    // window
    secs(
        "window.partition_s",
        "partitioning, reported by WindowReport",
    ),
    secs("window.stitch_s", "stitching, reported by WindowReport"),
    count("window.windows", true, "windows carved"),
    count("window.covered_ands", true, "host ANDs covered by windows"),
    count(
        "window.skipped",
        false,
        "windows whose export produced nothing",
    ),
    count(
        "window.stitched_classes",
        true,
        "choice classes in the stitched network",
    ),
    count(
        "window.fallbacks",
        false,
        "circuits whose windowed path failed",
    ),
    // server
    secs("server.cold_phase_s", "run_batch of the cold requests"),
    secs(
        "server.reextract_phase_s",
        "run_batch with another extractor (checkpoint restore)",
    ),
    secs(
        "server.warm_phase_s",
        "run_batch of the resubmitted requests",
    ),
    count("server.warm_jobs", true, "jobs in the warm batch"),
    rate(
        "server.warm_jobs_per_s",
        "1/s",
        "warm jobs served per second",
    ),
    count("server.saturations", false, "fresh saturations"),
    count(
        "server.checkpoint_hits",
        true,
        "jobs that restored a checkpoint",
    ),
    count(
        "server.cache_hits",
        true,
        "jobs served from the result cache",
    ),
    count("server.jobs_failed", false, "jobs that failed any check"),
    // aig / benchgen / harness
    secs(
        "aig.fingerprint_s",
        "probe: structural_fingerprint of the inputs",
    ),
    secs(
        "benchgen.generate_s",
        "benchgen generator calls of one set-up",
    ),
    Metric {
        name: "trace.overhead_share",
        unit: "ratio",
        higher_is_better: false,
        bound: None,
        kind: Kind::Timed,
        meaning: "traced pass / untraced median - 1",
    },
];

/// Workload names with the one-line reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "saturate-deep",
        "map flow with raised saturation limits: the only setting where egraph dominates the pass",
    ),
    (
        "map-verify",
        "map flow at paper limits: swept CEC + SAT dominate, so an egraph gain should barely move it",
    ),
    (
        "resyn-paper",
        "the paper's Table II flow with a 32-iteration SA extraction: extraction and the conventional rounds dominate, egraph is under 5 %",
    ),
    (
        "windowed-scale",
        "windowed map flow: hundreds of tiny e-graphs plus partition/stitch instead of one large e-graph",
    ),
    (
        "serve-mix",
        "job server cold / re-extract / warm phases: checkpoint restore and result cache, a second driver",
    ),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::value::Value;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(well_formed(metric.name), "{}", metric.name);
            assert!(seen.insert(metric.name), "duplicate {}", metric.name);
            assert!(
                !metric.unit.is_empty()
                    && metric.unit.len() <= 16
                    && metric
                        .unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {}",
                metric.name,
                metric.unit
            );
        }
        for (name, why) in WORKLOADS {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "duplicate {name}");
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        for metric in END_TO_END {
            assert!(metric.bound.is_some_and(|b| b > 0.0 && b <= 0.25));
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// `BENCHMARK.json` lives at the repository root, above `crates/bench`.
    fn benchmark_json() -> Option<Value> {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        loop {
            if let Ok(text) = std::fs::read_to_string(dir.join("BENCHMARK.json")) {
                return Some(serde_json::parse_value_text(&text).expect("BENCHMARK.json parses"));
            }
            if !dir.pop() {
                return None;
            }
        }
    }

    #[test]
    fn benchmark_json_repeats_the_catalog() {
        let Some(doc) = benchmark_json() else {
            return;
        };
        let text = |v: &Value, key: &str| match v.get(key) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let rows = |key: &str| match doc.get(key) {
            Some(Value::Array(rows)) => rows.clone(),
            other => panic!("{key}: {other:?}"),
        };
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let rows = rows(key);
            assert_eq!(rows.len(), table.len(), "{key}");
            for (row, metric) in rows.iter().zip(table) {
                assert_eq!(text(row, "name"), metric.name);
                assert_eq!(text(row, "unit"), metric.unit, "{}", metric.name);
                let better = if metric.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(text(row, "better"), better, "{}", metric.name);
                let bound = match row.get("bound") {
                    Some(Value::Float(b)) => Some(*b),
                    None => None,
                    other => panic!("{}: bound {other:?}", metric.name),
                };
                assert_eq!(bound, metric.bound, "{}", metric.name);
            }
        }
        let workloads = rows("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (row, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(text(row, "name"), *name);
            assert_eq!(text(row, "why"), *why);
        }
    }
}
