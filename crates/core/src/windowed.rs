//! Windowed saturation orchestration: carve → saturate → stitch.
//!
//! A monolithic e-graph must hold the entire design, so the saturation
//! budgets of [`crate::flow::FlowConfig`] bite long before industrial sizes.
//! This module drives the [`window`] subsystem instead: the host AIG is
//! carved into reconvergence-bounded windows, every window is saturated as
//! an *independent* e-graph (serial search inside; parallelism comes from
//! racing whole windows across [`egraph::pool`], whose contract makes the
//! result independent of the worker count), and the per-window e-spaces are
//! either
//!
//! * stitched into one global [`choices::ChoiceAig`] for choice-aware
//!   mapping ([`saturate_windows`], used by `emorphic_map_flow`), or
//! * committed window-by-window, keeping a window's extraction only when it
//!   shrinks the window cone ([`windowed_resynthesis`], used by
//!   `emorphic_flow`).
//!
//! Budgets are carved from the global configuration: the e-node limit and
//! the extraction budget are divided across windows (with a floor so tiny
//! shares stay useful), which is what makes the wall-clock cost grow with
//! the number of windows — linear in design size — instead of with the
//! superlinear cost of one giant e-graph. A saturation time limit is a
//! deadline for the whole phase: each window gets the time left to it.

use crate::extract::{BottomUpEngine, ExtractBudget, ExtractionCost, ExtractionEngine};
use crate::flow::{saturate, FlowConfig, SaturatedState, SaturationKey};
use crate::rules::all_rules;
use aig::{Aig, Lit, NodeId};
use choices::ChoiceConfig;
use egraph::pool::for_each_indexed;
use std::time::{Duration, Instant};
use window::{
    partition, stitch, Partition, Stitched, Window, WindowChoiceSpace, WindowError, WindowOptions,
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
    /// Windows whose committed extraction beat the original cone
    /// (committed path only).
    pub windows_resynthesized: usize,
    /// Wall-clock time of the partitioning pass.
    pub partition_time: Duration,
    /// Wall-clock time of per-window saturation (+ extraction/export).
    pub saturation_time: Duration,
    /// Wall-clock time of stitching (choice path) or host rebuild
    /// (committed path).
    pub stitch_time: Duration,
    /// Choice classes exported into the stitched network (choice path only).
    pub classes_exported: usize,
    /// Alternatives in the stitched network (choice path only).
    pub alternatives: usize,
    /// E-nodes summed over all window e-graphs after saturation.
    pub egraph_nodes: usize,
    /// E-classes summed over all window e-graphs after saturation.
    pub egraph_classes: usize,
    /// Set when the windowed path failed and the flow fell back to the
    /// monolithic path; the windowed result was NOT used.
    pub error: Option<String>,
}

/// Divides a global extraction budget evenly across `windows`.
fn carve_budget(global: &ExtractBudget, windows: usize) -> ExtractBudget {
    let n = windows.max(1) as u64;
    ExtractBudget {
        max_evaluations: global.max_evaluations.map(|e| (e / n).max(1_000)),
        time_limit: global
            .time_limit
            .map(|t| (t / windows.max(1) as u32).max(Duration::from_millis(50))),
    }
}

/// Divides the global e-node limit across `windows`, with a usable floor.
fn carve_node_limit(global: usize, windows: usize) -> usize {
    (global / windows.max(1)).max(MIN_WINDOW_NODE_LIMIT)
}

/// Interior nodes of `window` that become unreachable once its root is
/// redirected to a replacement: the root itself, plus (to a fixpoint) every
/// volume node that drives no primary output and whose AND consumers are all
/// dead already. Nodes claimed by an earlier committed window are excluded
/// from the result — they are already counted as removed — but still count
/// as dead consumers, since they will not keep anything alive. `protected`
/// nodes are never declared dead: the fanout lists only describe the
/// original host, and a committed replacement adds consumer edges to its
/// leaves that those lists cannot see, so leaves of committed windows must
/// stay out of later dead sets or the accounting overcounts.
fn dead_interior(
    window: &Window,
    fanout_lists: &[Vec<NodeId>],
    drives_output: &[bool],
    claimed: &aig::FxHashSet<NodeId>,
    protected: &aig::FxHashSet<NodeId>,
) -> Vec<NodeId> {
    let mut dead: aig::FxHashSet<NodeId> = aig::FxHashSet::default();
    dead.insert(window.root);
    loop {
        let mut changed = false;
        for &v in window.volume.iter().rev() {
            if v == window.root
                || dead.contains(&v)
                || claimed.contains(&v)
                || protected.contains(&v)
                || drives_output[v.index()]
            {
                continue;
            }
            let gone = fanout_lists[v.index()]
                .iter()
                .all(|c| dead.contains(c) || claimed.contains(c));
            if gone {
                dead.insert(v);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    dead.into_iter().collect()
}

/// The windowed driver shared by both entry points: partition → report
/// header → carved limits → per-window saturation on the pool (one rule set
/// per worker, serial search per window). `per_window` turns a window's
/// saturated e-graph into that entry point's per-window product, or `None`
/// for a window that yields nothing usable. Products come back in window
/// order; e-graph sizes are summed over the windows that produced something,
/// the rest — including windows that would start past the saturation
/// deadline — are counted in `windows_skipped`.
fn drive_windows<R: Send>(
    aig: &Aig,
    opts: &WindowOptions,
    config: &FlowConfig,
    per_window: impl Fn(&Window, &SaturatedState, &ExtractBudget) -> Option<R> + Sync,
) -> Result<(Partition, WindowReport, Vec<Option<R>>), WindowError> {
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
    let budget = carve_budget(&config.extract_budget, part.windows.len());
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
            let window = &part.windows[i];
            let knobs = SaturationKey {
                node_limit,
                time_limit: time_left,
                ..config.saturation_key()
            };
            let state = saturate(&window.cone.aig, &knobs, 1, rules, None);
            let product = per_window(window, &state, &budget)?;
            Some((
                product,
                state.egraph.total_nodes(),
                state.egraph.num_classes(),
            ))
        },
    );
    report.saturation_time = t_sat.elapsed();

    let products = results
        .into_iter()
        .map(|result| {
            let Some((product, nodes, classes)) = result else {
                report.windows_skipped += 1;
                return None;
            };
            report.egraph_nodes += nodes;
            report.egraph_classes += classes;
            Some(product)
        })
        .collect();
    Ok((part, report, products))
}

/// Carve → saturate per window → export choice classes → stitch into one
/// global choice network (the `emorphic_map_flow` windowed path).
///
/// Windows whose export fails are skipped — their logic survives untouched
/// in the stitched host — and counted in the report.
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
    let (part, mut report, networks) = drive_windows(aig, opts, config, |_, state, _| {
        choices::egraph_to_choices(
            &state.egraph,
            &state.roots,
            &state.input_names,
            &state.output_names,
            &state.name,
            choices,
        )
        .ok()
        .map(|(network, _stats)| network)
    })?;
    let spaces: Vec<WindowChoiceSpace> = networks
        .into_iter()
        .enumerate()
        .filter_map(|(window, network)| {
            network.map(|choices| WindowChoiceSpace { window, choices })
        })
        .collect();

    let t_stitch = Instant::now();
    let stitched = stitch(aig, &part, &spaces)?;
    report.stitch_time = t_stitch.elapsed();
    report.classes_exported = stitched.stats.classes;
    report.alternatives = stitched.stats.alternatives;
    Ok((stitched, part, report))
}

/// Carve → saturate per window → extract per window → commit shrinking
/// replacements into a rebuilt host (the `emorphic_flow` windowed path).
///
/// A window's extraction is committed only when it strictly reduces the
/// window cone's AND count; everything else keeps the original structure,
/// so the result is never larger than the input.
///
/// # Errors
/// Propagates [`WindowError`] from partitioning or internal translation;
/// per-window extraction failures are absorbed (the window keeps its
/// original logic).
pub fn windowed_resynthesis(
    aig: &Aig,
    opts: &WindowOptions,
    config: &FlowConfig,
) -> Result<(Aig, Partition, WindowReport), WindowError> {
    let (part, mut report, candidates) =
        drive_windows(aig, opts, config, |window, state, budget| {
            let engine = BottomUpEngine::new(ExtractionCost::Size);
            let extraction = engine.extract(&state.egraph, &state.roots, budget).ok()?;
            let candidate = crate::convert::try_selection_to_aig(
                &state.egraph,
                &extraction.selection,
                &state.roots,
                &state.input_names,
                &state.output_names,
                &state.name,
            )
            .ok()?
            .strash_copy();
            (candidate.num_ands() < window.cone.aig.num_ands()).then_some(candidate)
        })?;

    // Greedy commit with exact dead-logic accounting. Windows overlap, so a
    // candidate that merely beats its own cone can still grow the host: the
    // cone's interior may stay alive through fanouts outside the window while
    // the replacement adds fresh nodes. A window commits only when its
    // replacement is smaller than the interior logic that provably dies once
    // the root is redirected, and a global claimed set keeps overlapping
    // windows from counting the same dying node twice. With each committed
    // window strictly net-negative, the rebuilt host never grows.
    let fanout_lists = aig.fanout_lists();
    let mut drives_output = vec![false; aig.num_nodes()];
    for out in aig.outputs() {
        drives_output[out.node().index()] = true;
    }
    let mut claimed: aig::FxHashSet<NodeId> = aig::FxHashSet::default();
    let mut live_leaves: aig::FxHashSet<NodeId> = aig::FxHashSet::default();
    let mut replacement_of: aig::FxHashMap<NodeId, Aig> = aig::FxHashMap::default();
    for (w, candidate) in part.windows.iter().zip(candidates) {
        // Windows without a candidate were already counted as skipped.
        let Some(candidate) = candidate else {
            continue;
        };
        // A replacement reads its leaves and redirects its root; neither may
        // be logic an earlier commit already counted as dead.
        if claimed.contains(&w.root) || w.leaves.iter().any(|l| claimed.contains(l)) {
            report.windows_skipped += 1;
            continue;
        }
        let dead = dead_interior(w, &fanout_lists, &drives_output, &claimed, &live_leaves);
        if candidate.num_ands() < dead.len() {
            claimed.extend(dead);
            live_leaves.extend(w.leaves.iter().copied());
            replacement_of.insert(w.root, candidate);
            report.windows_resynthesized += 1;
        } else {
            report.windows_skipped += 1;
        }
    }
    let window_of_root: aig::FxHashMap<NodeId, usize> =
        part.windows.iter().map(|w| (w.root, w.id)).collect();

    // Rebuild the host, substituting each committed window root with its
    // extracted cone (translated through the boundary table). Interior nodes
    // of replaced windows are still rebuilt — other fanouts may read them —
    // and the final cleanup drops whichever end up dangling.
    let t_rebuild = Instant::now();
    let (g, _) = aig.try_rebuild::<WindowError>(|g, id, view| {
        let Some(replacement) = replacement_of.get(&id) else {
            return Ok(view.copy_gate(g, id));
        };
        let window = &part.windows[window_of_root[&id]];
        // A window's leaves precede its root, so the walk has rebuilt them.
        let leaf_lits: Vec<Lit> = window.leaves.iter().map(|&leaf| view.node(leaf)).collect();
        let map = replacement.copy_logic_into(g, &leaf_lits);
        let out = replacement.outputs().first().ok_or_else(|| {
            WindowError::Translation(format!(
                "window {} replacement produced no output",
                window.id
            ))
        })?;
        Ok(map[out.node().index()].xor(out.is_complemented()))
    })?;
    let rebuilt = g.cleanup();
    report.stitch_time = t_rebuild.elapsed();
    Ok((rebuilt, part, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cec::{check_equivalence, CecOptions};

    #[test]
    fn windowed_resynthesis_preserves_function_and_never_grows() {
        let circuit = benchgen::adder(8).aig;
        let config = FlowConfig::fast();
        let (rebuilt, part, report) =
            windowed_resynthesis(&circuit, &WindowOptions::default(), &config).unwrap();
        assert!(!part.windows.is_empty());
        assert_eq!(report.windows, part.windows.len());
        assert!(rebuilt.num_ands() <= circuit.num_ands());
        let check = check_equivalence(&circuit, &rebuilt, &CecOptions::default());
        assert!(check.is_equivalent(), "{check:?}");
    }

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

        let (c1, _, _) =
            windowed_resynthesis(&circuit, &WindowOptions::default(), &serial).unwrap();
        let (c4, _, _) =
            windowed_resynthesis(&circuit, &WindowOptions::default(), &parallel).unwrap();
        assert_eq!(c1.num_nodes(), c4.num_nodes());
        assert_eq!(c1.num_ands(), c4.num_ands());
        assert_eq!(c1.outputs(), c4.outputs());
    }

    #[test]
    fn budget_carving_has_floors() {
        let carved = carve_budget(
            &ExtractBudget::unlimited()
                .with_max_evaluations(10_000)
                .with_time_limit(Duration::from_millis(100)),
            1_000,
        );
        assert_eq!(carved.max_evaluations, Some(1_000));
        assert_eq!(carved.time_limit, Some(Duration::from_millis(50)));
        assert_eq!(carve_node_limit(20_000, 1_000), MIN_WINDOW_NODE_LIMIT);
        assert_eq!(carve_node_limit(20_000, 4), 5_000);
        // Unlimited budgets stay unlimited.
        let unlimited = carve_budget(&ExtractBudget::unlimited(), 8);
        assert_eq!(unlimited.max_evaluations, None);
        assert_eq!(unlimited.time_limit, None);
    }
}
