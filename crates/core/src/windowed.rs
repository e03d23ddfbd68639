//! Windowed saturation orchestration: carve → saturate → stitch.
//!
//! A monolithic e-graph must hold the entire design, so the saturation
//! budgets of [`crate::flow::FlowConfig`] bite long before industrial sizes.
//! This module drives the [`window`] subsystem instead: the host AIG is
//! carved into reconvergence-bounded windows, every window is saturated as
//! an *independent* e-graph (serial search inside; parallelism comes from
//! racing whole windows across [`egraph::pool`], whose contract makes the
//! result independent of the worker count), and the per-window e-spaces are
//! stitched into one global [`choices::ChoiceAig`] for choice-aware mapping
//! ([`saturate_windows`], used by `emorphic_map_flow`). The Table II flow
//! (`emorphic_flow`) has no windowed path: like the paper, it converts the
//! whole design to one e-graph and back.
//!
//! The e-node limit is divided across windows (with a floor so tiny shares
//! stay useful), which is what makes the wall-clock cost grow with the
//! number of windows — linear in design size — instead of with the
//! superlinear cost of one giant e-graph. A saturation time limit is a
//! deadline for the whole phase: each window gets the time left to it.

use crate::flow::{saturate, FlowConfig, SaturationKey};
use crate::rules::all_rules;
use aig::Aig;
use choices::ChoiceConfig;
use egraph::pool::for_each_indexed;
use std::time::{Duration, Instant};
use window::{
    partition, stitch, Partition, Stitched, WindowChoiceSpace, WindowError, WindowOptions,
};

/// Floor for the per-window e-node budget: below this a window cannot even
/// hold its own cone plus a handful of rewrites.
const MIN_WINDOW_NODE_LIMIT: usize = 256;

/// Per-window statistics of a windowed saturation run, surfaced in the flow
/// results.
#[derive(Debug, Clone, Default)]
pub struct WindowReport {
    /// Windows the partitioner produced.
    pub windows: usize,
    /// Sum of window leaf counts (boundary width).
    pub total_leaves: usize,
    /// Host AND gates covered by window volumes.
    pub covered_ands: usize,
    /// Windows whose saturation or export produced nothing usable (their
    /// host logic is kept untouched).
    pub windows_skipped: usize,
    /// Wall-clock time of the partitioning pass.
    pub partition_time: Duration,
    /// Wall-clock time of per-window saturation and export.
    pub saturation_time: Duration,
    /// Wall-clock time of stitching.
    pub stitch_time: Duration,
    /// Choice classes exported into the stitched network.
    pub classes_exported: usize,
    /// Alternatives in the stitched network.
    pub alternatives: usize,
    /// E-nodes summed over all window e-graphs after saturation.
    pub egraph_nodes: usize,
    /// E-classes summed over all window e-graphs after saturation.
    pub egraph_classes: usize,
    /// Set only by `emorphic_flow` run with [`FlowConfig::partitioning`]:
    /// the Table II flow has no windowed path, so it ran monolithic and
    /// says so here. `emorphic_map_flow` never sets it; a failed windowed
    /// map flow returns its [`WindowError`] instead.
    pub error: Option<String>,
}

/// Divides the global e-node limit across `windows`, with a usable floor.
fn carve_node_limit(global: usize, windows: usize) -> usize {
    (global / windows.max(1)).max(MIN_WINDOW_NODE_LIMIT)
}

/// Carve → saturate per window → export choice classes → stitch into one
/// global choice network (the `emorphic_map_flow` windowed path).
///
/// Windows are saturated on the pool (one rule set per worker, serial
/// search per window) and come back in window order. Windows whose export
/// fails, or that would start past the saturation deadline, are skipped —
/// their logic survives untouched in the stitched host — and counted in the
/// report; e-graph sizes are summed over the rest.
///
/// # Errors
/// Propagates [`WindowError`] from partitioning (bad knobs) or stitching
/// (internal inconsistency); per-window saturation/export failures are
/// absorbed, not propagated.
pub fn saturate_windows(
    aig: &Aig,
    opts: &WindowOptions,
    config: &FlowConfig,
    choices: &ChoiceConfig,
) -> Result<(Stitched, Partition, WindowReport), WindowError> {
    let t_part = Instant::now();
    let part = partition(aig, opts)?;
    let mut report = WindowReport {
        windows: part.windows.len(),
        total_leaves: part.stats.total_leaves,
        covered_ands: part.stats.covered_ands,
        partition_time: t_part.elapsed(),
        ..WindowReport::default()
    };

    let node_limit = carve_node_limit(config.node_limit, part.windows.len());
    let t_sat = Instant::now();
    let results = for_each_indexed(
        part.windows.len(),
        config.search_threads,
        all_rules,
        |i, rules| {
            let time_left = match config.saturation_time_limit {
                None => None,
                Some(limit) => match limit.checked_sub(t_sat.elapsed()) {
                    Some(left) if !left.is_zero() => Some(left),
                    _ => return None,
                },
            };
            let knobs = SaturationKey {
                node_limit,
                time_limit: time_left,
                ..config.saturation_key()
            };
            let state = saturate(&part.windows[i].cone.aig, &knobs, 1, rules, None);
            let (network, _stats) = choices::egraph_to_choices(
                &state.egraph,
                &state.roots,
                &state.input_names,
                &state.output_names,
                &state.name,
                choices,
            )
            .ok()?;
            Some((
                network,
                state.egraph.total_nodes(),
                state.egraph.num_classes(),
            ))
        },
    );
    report.saturation_time = t_sat.elapsed();

    let mut spaces = Vec::new();
    for (window, result) in results.into_iter().enumerate() {
        let Some((choices, nodes, classes)) = result else {
            report.windows_skipped += 1;
            continue;
        };
        report.egraph_nodes += nodes;
        report.egraph_classes += classes;
        spaces.push(WindowChoiceSpace { window, choices });
    }

    let t_stitch = Instant::now();
    let stitched = stitch(aig, &part, &spaces)?;
    report.stitch_time = t_stitch.elapsed();
    report.classes_exported = stitched.stats.classes;
    report.alternatives = stitched.stats.alternatives;
    Ok((stitched, part, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cec::{check_equivalence, CecOptions};

    #[test]
    fn saturate_windows_produces_verified_stitch() {
        let circuit = benchgen::multiplier(4).aig;
        let config = FlowConfig::fast();
        let (stitched, part, report) = saturate_windows(
            &circuit,
            &WindowOptions::default(),
            &config,
            &ChoiceConfig::default(),
        )
        .unwrap();
        assert_eq!(report.windows, part.windows.len());
        assert!(report.egraph_nodes > 0);
        // The stitched representative network is the rebuilt host.
        let repr = stitched.network.repr_network();
        let check = check_equivalence(&circuit, &repr, &CecOptions::default());
        assert!(check.is_equivalent(), "{check:?}");
    }

    #[test]
    fn window_results_are_thread_count_independent() {
        let circuit = benchgen::multiplier(4).aig;
        let serial = FlowConfig {
            search_threads: 1,
            ..FlowConfig::fast()
        };
        let parallel = FlowConfig {
            search_threads: 4,
            ..FlowConfig::fast()
        };
        let (s1, p1, r1) = saturate_windows(
            &circuit,
            &WindowOptions::default(),
            &serial,
            &ChoiceConfig::default(),
        )
        .unwrap();
        let (s4, p4, r4) = saturate_windows(
            &circuit,
            &WindowOptions::default(),
            &parallel,
            &ChoiceConfig::default(),
        )
        .unwrap();
        assert_eq!(p1.windows.len(), p4.windows.len());
        for (a, b) in p1.windows.iter().zip(&p4.windows) {
            assert_eq!(a.root, b.root);
            assert_eq!(a.leaves, b.leaves);
            assert_eq!(a.volume, b.volume);
        }
        assert_eq!(r1.egraph_nodes, r4.egraph_nodes);
        assert_eq!(r1.egraph_classes, r4.egraph_classes);
        assert_eq!(s1.network.aig().num_nodes(), s4.network.aig().num_nodes());
        assert_eq!(s1.network.num_classes(), s4.network.num_classes());
        assert_eq!(s1.stats, s4.stats);
    }

    #[test]
    fn budget_carving_has_floors() {
        assert_eq!(carve_node_limit(20_000, 1_000), MIN_WINDOW_NODE_LIMIT);
        assert_eq!(carve_node_limit(20_000, 4), 5_000);
    }
}
