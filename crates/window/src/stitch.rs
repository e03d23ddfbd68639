//! Stitch per-window choice spaces into one global choice network.
//!
//! The stitcher rebuilds the host AIG node by node. When the walk reaches a
//! window root, the window's exported choice network is replayed into the
//! host-under-construction first — its inputs translated through the
//! boundary table to the literals the window leaves rebuilt to — and then
//! the root itself is built, so the host node (the only literal the rest of
//! the network references) gets the largest id and can serve as the choice
//! class representative under the ordering invariant. The window's root
//! class is folded into that *link class* rather than registered separately,
//! so no node is a member of two classes; interior window classes are
//! registered as-is and cleaned by [`choices::filter_ordering`] where
//! structural hashing collapsed their representative onto older host logic.

use crate::{Partition, WindowError};
use aig::{Aig, Lit, NodeId, RebuildView};
use choices::{filter_ordering, ChoiceAig, ChoiceClass};
use fxhash::{FxHashMap, FxHashSet};

/// One window's exported choice space, ready to stitch.
#[derive(Debug, Clone)]
pub struct WindowChoiceSpace {
    /// Index into [`Partition::windows`].
    pub window: usize,
    /// The window cone's choice network: inputs correspond positionally to
    /// the window's `cone.leaf_map`, single output is the root function.
    pub choices: ChoiceAig,
}

/// Summary statistics of a stitch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StitchStats {
    /// Boundary literals translated through the table (window leaves plus
    /// window roots).
    pub boundary_literals: usize,
    /// Choice classes in the stitched network.
    pub classes: usize,
    /// Non-representative members in the stitched network.
    pub alternatives: usize,
    /// Nodes replayed from window choice spaces into the host.
    pub replayed_nodes: usize,
    /// Members dropped because structural hashing broke the ordering
    /// invariant (representative collapsed onto older logic).
    pub dropped_ordering: usize,
    /// Members dropped because their node already belongs to another class
    /// (overlapping windows exploring the same structure).
    pub dropped_duplicate: usize,
}

/// The product of [`stitch`]: a global choice network plus the boundary
/// translation table that produced it.
#[derive(Debug, Clone)]
pub struct Stitched {
    /// The global choice network; its representative network is the rebuilt
    /// host.
    pub network: ChoiceAig,
    /// For every host node id, the literal it rebuilt to (all host nodes are
    /// mapped after a successful stitch).
    pub table: Vec<Option<Lit>>,
    /// Summary statistics.
    pub stats: StitchStats,
}

/// Rebuilds `host` with every window's choice space linked in at its root.
///
/// `spaces` may cover any subset of the partition's windows (windows whose
/// saturation failed or exported nothing are simply skipped); at most one
/// space per window is honored.
///
/// # Errors
/// * [`WindowError::Translation`] — a space references a window index outside
///   the partition, or its choice network does not fit the window (more
///   inputs than the cone has leaves, no output).
/// * [`WindowError::Stitch`] — the assembled class list failed
///   [`ChoiceAig::new`] validation.
pub fn stitch(
    host: &Aig,
    partition: &Partition,
    spaces: &[WindowChoiceSpace],
) -> Result<Stitched, WindowError> {
    let mut root_space: FxHashMap<NodeId, &WindowChoiceSpace> = FxHashMap::default();
    for space in spaces {
        let window = partition.windows.get(space.window).ok_or_else(|| {
            WindowError::Translation(format!(
                "choice space references window {} but the partition has {}",
                space.window,
                partition.windows.len()
            ))
        })?;
        root_space.entry(window.root).or_insert(space);
    }

    let mut stats = StitchStats::default();
    let mut classes: Vec<ChoiceClass> = Vec::new();
    let mut used_nodes: FxHashSet<NodeId> = FxHashSet::default();

    let (mut g, table) = host.try_rebuild::<WindowError>(|g, id, view| {
        let mut root_members: Vec<Lit> = Vec::new();
        if let Some(space) = root_space.get(&id) {
            let window = &partition.windows[space.window];
            root_members = replay_space(
                g,
                view,
                window,
                space,
                &mut classes,
                &mut used_nodes,
                &mut stats,
            )?;
        }
        let here = view.copy_gate(g, id);
        if !root_members.is_empty() {
            stats.boundary_literals += 1; // the root crossing
            link_class(
                g,
                here,
                root_members,
                &mut classes,
                &mut used_nodes,
                &mut stats,
            );
        }
        Ok(here)
    })?;
    g.set_name(format!("{}_stitched", host.name()));

    let (kept, dropped) = filter_ordering(classes);
    stats.dropped_ordering += dropped;
    stats.classes = kept.len();
    stats.alternatives = kept.iter().map(|c| c.alternatives().len()).sum();
    let network = ChoiceAig::new(g, kept)?;
    Ok(Stitched {
        network,
        table: table.into_iter().map(Some).collect(),
        stats,
    })
}

/// Replays one window's choice network into `g`, registering its interior
/// classes and returning the translated members of its root class (with the
/// output phase applied), which the caller folds into the link class.
fn replay_space(
    g: &mut Aig,
    view: &RebuildView<'_>,
    window: &crate::Window,
    space: &WindowChoiceSpace,
    classes: &mut Vec<ChoiceClass>,
    used_nodes: &mut FxHashSet<NodeId>,
    stats: &mut StitchStats,
) -> Result<Vec<Lit>, WindowError> {
    let waig = space.choices.aig();
    let leaves = window
        .cone
        .leaf_map
        .get(..waig.num_inputs())
        .ok_or_else(|| {
            WindowError::Translation(format!(
                "window {} choice network has {} inputs but the cone has {} leaves",
                window.id,
                waig.num_inputs(),
                window.cone.leaf_map.len()
            ))
        })?;
    // A window's leaves precede its root, so the walk has rebuilt them.
    let leaf_lits: Vec<Lit> = leaves.iter().map(|&leaf| view.node(leaf)).collect();
    stats.boundary_literals += leaf_lits.len();
    let local = waig.copy_logic_into(g, &leaf_lits);
    stats.replayed_nodes += waig.num_ands();

    let out = waig.outputs().first().copied().ok_or_else(|| {
        WindowError::Translation(format!("window {} choice network has no output", window.id))
    })?;
    let root_class = space.choices.class_of(out.node());
    // Every translated root-class member evaluates to the class function F =
    // value(out.node()) ^ member_phase, where member_phase is the phase the
    // class stores the output node under; the host references the root
    // function value(out.node()) ^ out_phase. Folding therefore corrects by
    // both phases, not just the output literal's.
    let member_phase = root_class
        .and_then(|rc| rc.members.iter().find(|m| m.node() == out.node()))
        .map(|m| m.is_complemented())
        .unwrap_or(false);
    let fold_phase = member_phase ^ out.is_complemented();

    let mut root_members = Vec::new();
    for class in space.choices.classes() {
        let translated: Vec<Lit> = class
            .members
            .iter()
            .map(|member| local[member.node().index()].xor(member.is_complemented()))
            .collect();
        if root_class.is_some_and(|rc| std::ptr::eq(rc, class)) {
            // The root class is folded into the caller's link class; the
            // phase correction makes every member evaluate to the root
            // function the host references.
            root_members = translated.into_iter().map(|l| l.xor(fold_phase)).collect();
            continue;
        }
        register_class(g, translated, classes, used_nodes, stats);
    }
    Ok(root_members)
}

/// Registers an interior window class, dropping members that are not fresh
/// AND nodes or already belong to another class.
fn register_class(
    g: &Aig,
    translated: Vec<Lit>,
    classes: &mut Vec<ChoiceClass>,
    used_nodes: &mut FxHashSet<NodeId>,
    stats: &mut StitchStats,
) {
    let mut members: Vec<Lit> = Vec::new();
    let mut seen: FxHashSet<NodeId> = FxHashSet::default();
    // The exporter orders class members representative-first; preserve that.
    for lit in translated {
        let node = lit.node();
        if !g.node(node).is_and() {
            continue;
        }
        if used_nodes.contains(&node) || !seen.insert(node) {
            stats.dropped_duplicate += 1;
            continue;
        }
        members.push(lit);
    }
    if members.len() < 2 {
        return;
    }
    for m in &members {
        used_nodes.insert(m.node());
    }
    classes.push(ChoiceClass { members });
}

/// Builds the link class tying the host root literal to the window's root
/// alternatives. The host literal is the representative; alternatives that
/// collide with it, with other classes, or that are not AND nodes are
/// dropped.
fn link_class(
    g: &Aig,
    here: Lit,
    root_members: Vec<Lit>,
    classes: &mut Vec<ChoiceClass>,
    used_nodes: &mut FxHashSet<NodeId>,
    stats: &mut StitchStats,
) {
    if here.is_complemented() || !g.node(here.node()).is_and() || used_nodes.contains(&here.node())
    {
        // Constant-propagated or input-collapsed root, or a root shared with
        // another class: no link class is possible here.
        return;
    }
    let mut members = vec![here];
    let mut seen: FxHashSet<NodeId> = FxHashSet::default();
    seen.insert(here.node());
    for lit in root_members {
        let node = lit.node();
        if !g.node(node).is_and() {
            continue;
        }
        if used_nodes.contains(&node) || !seen.insert(node) {
            stats.dropped_duplicate += 1;
            continue;
        }
        members.push(lit);
    }
    if members.len() < 2 {
        return;
    }
    for m in &members {
        used_nodes.insert(m.node());
    }
    classes.push(ChoiceClass { members });
}
