//! The covering core under both mappers: the classic *map → required →
//! recover* loop over an enumerated cut set, written once and monomorphised
//! over a [`CostModel`].
//!
//! 1. A delay-optimal first pass selects, for every node, the cut (and the
//!    model's implementation of it) with the earliest arrival, ties broken
//!    by area flow. Over a choice network the cut sets already pool every
//!    class member's structures, so this pass is depth-optimal across the
//!    whole recorded e-space.
//! 2. Required times are propagated backward from the primary outputs at the
//!    effective target (the requested delay target, floored at the achieved
//!    critical path) through the selected cuts.
//! 3. Each area-recovery pass re-selects, by area flow, among the cuts whose
//!    arrival meets the node's required time — over a choice network this
//!    can swap in a *different class member's* cut — then measures the
//!    induced cover exactly and keeps it only if it is strictly smaller
//!    without busting the target; a failed pass is rolled back, so running
//!    `k + 1` passes never ends worse than running `k`.
//!
//! The LUT mapper runs it under unit delay and unit area (levels and LUT
//! counts are exact in `f64`, so every comparison below orders them as
//! integers would), the standard-cell mapper under NPN matching and the
//! pin-to-pin model of [`crate::timing`].

use crate::cuts::{Cut, CutSet, MAX_CUT_LEAVES};
use crate::MapError;
use aig::{Aig, AigNode, NodeId};

/// Slop for floating-point timing and area comparisons.
const EPS: f64 = 1e-9;

/// What the covering core asks of a mapping target.
pub(crate) trait CostModel {
    /// How a cut is implemented (a library cell's NPN class slot; nothing
    /// for a LUT). [`cover`] keeps an `Option` of it per cut, so it should
    /// leave that a byte.
    type Impl: Copy;

    /// The implementation of `cut`, or `None` if the target has none. Asked
    /// once per cut and mapping.
    fn implement(&self, cut: &Cut) -> Option<Self::Impl>;

    /// Arrival time at the output of `imp` given its leaves' arrivals.
    fn arrival(&self, imp: Self::Impl, leaf_arrivals: &[f64]) -> f64;

    /// Area of `imp` itself, without its leaves' cones.
    fn area(&self, imp: Self::Impl) -> f64;

    /// The delay from each leaf (in leaf order) to the output of `imp`: a
    /// root required at `t` requires leaf `i` at `t - leaf_delays[i]`.
    fn leaf_delays(&self, imp: Self::Impl, leaf_arrivals: &[f64]) -> [f64; MAX_CUT_LEAVES];

    /// `(delay, area)` a complemented primary output adds.
    fn output_inverter(&self) -> (f64, f64);
}

/// The cut selected for a node and its implementation.
#[derive(Clone, Copy)]
struct Pick<I> {
    /// Index into the node's cuts: `check_capacity` bounds a cut set by
    /// `u16` and the arena by `u32`. The narrow index halves the `pick`
    /// array every recovery pass clones.
    cut_index: u32,
    imp: I,
}

impl<I> Pick<I> {
    /// The leaves of the picked cut of `node`.
    fn leaves<'a>(&self, cuts: &'a CutSet, node: NodeId) -> &'a [NodeId] {
        cuts.leaves(node, self.cut_index as usize)
    }
}

/// The dynamic program's state: a selection for every AND node (on or off
/// the cover) and the arrival / area-flow values it was made under.
#[derive(Clone)]
struct State<I> {
    pick: Vec<Option<Pick<I>>>,
    arrival: Vec<f64>,
    area_flow: Vec<f64>,
}

/// The cover a selection induces from the primary outputs, measured exactly
/// (not flow-estimated).
pub(crate) struct Cover {
    needed: Vec<bool>,
    /// Per-node arrival recomputed bottom-up over the cover only (0 off
    /// it) — the timing the result reports, independent of any stale DP
    /// state.
    pub arrival: Vec<f64>,
    /// Exact area, output inverters included.
    pub area: f64,
    /// Critical-path delay.
    pub delay: f64,
}

/// The result of [`cover`]: the kept selection and its measured cover.
pub(crate) struct Covering<I> {
    pick: Vec<Option<Pick<I>>>,
    /// The kept cover.
    pub cover: Cover,
    /// The effective required time at the primary outputs: the requested
    /// target, floored at the delay-optimal critical path.
    pub target: f64,
}

impl<I: Copy> Covering<I> {
    /// The covered nodes in topological order, each with its selected cut
    /// and implementation.
    pub fn roots<'a>(
        &'a self,
        aig: &'a Aig,
        cuts: &'a CutSet,
    ) -> impl Iterator<Item = (NodeId, Cut, I)> + 'a {
        aig.and_ids()
            .filter(|id| self.cover.needed[id.index()])
            .map(|id| {
                let pick = picked(&self.pick, id);
                (id, cuts.cut(id, pick.cut_index as usize), pick.imp)
            })
    }

    /// Required time of every node over the cover's own arrivals, so a
    /// cover that meets the target has non-negative slack on every root.
    pub fn required<M: CostModel<Impl = I>>(
        &self,
        aig: &Aig,
        cuts: &CutSet,
        model: &M,
    ) -> Vec<f64> {
        compute_required(
            aig,
            cuts,
            model,
            &self.pick,
            &self.cover.arrival,
            self.target,
        )
    }
}

fn picked<I: Copy>(pick: &[Option<Pick<I>>], id: NodeId) -> Pick<I> {
    pick[id.index()]
        .unwrap_or_else(|| unreachable!("the delay pass selects a cut on every AND node"))
}

/// Gathers a cut's leaf arrivals into a caller-provided stack buffer.
fn gather_leaf_arrivals<'a>(
    leaves: &[NodeId],
    arrival: &[f64],
    buf: &'a mut [f64; MAX_CUT_LEAVES],
) -> &'a [f64] {
    for (slot, leaf) in buf.iter_mut().zip(leaves) {
        *slot = arrival[leaf.index()];
    }
    &buf[..leaves.len()]
}

/// Covers `aig` with cuts from `cuts` under `model`.
///
/// # Errors
/// [`MapError::NoMatchableCut`] if the model implements no cut of some node.
pub(crate) fn cover<M: CostModel>(
    aig: &Aig,
    cuts: &CutSet,
    model: &M,
    area_passes: usize,
    delay_target: Option<f64>,
) -> Result<Covering<M::Impl>, MapError> {
    let fanouts = aig.fanout_counts();
    let matches = match_cuts(aig, cuts, model);
    let mut state = State {
        pick: vec![None; aig.num_nodes()],
        arrival: vec![0.0; aig.num_nodes()],
        area_flow: vec![0.0; aig.num_nodes()],
    };
    select(aig, cuts, &matches, &fanouts, model, &mut state, None)?;

    // The delay-optimal cover is the initial best snapshot; its critical
    // path floors the effective target (a tighter request cannot be met by
    // this cut set and is *reported* as such, never faked).
    let mut best_cover = derive_cover(aig, cuts, model, &state.pick);
    let target = delay_target.map_or(best_cover.delay, |t| t.max(best_cover.delay));
    let mut best_state = state.clone();

    for _ in 0..area_passes {
        let required = compute_required(aig, cuts, model, &state.pick, &state.arrival, target);
        select(
            aig,
            cuts,
            &matches,
            &fanouts,
            model,
            &mut state,
            Some(&required),
        )?;
        let cover = derive_cover(aig, cuts, model, &state.pick);
        if cover.delay <= target + EPS && cover.area < best_cover.area - EPS {
            best_cover = cover;
            best_state = state.clone();
        } else {
            // Roll back the whole DP state (selection *and* the arrival /
            // area-flow arrays), so the next pass evaluates candidates
            // against the accepted selection, not the rejected one.
            state = best_state.clone();
        }
    }

    Ok(Covering {
        pick: best_state.pick,
        cover: best_cover,
        target,
    })
}

/// The model's implementation of every cut of every AND node, aligned with
/// the cut arena ([`CutSet::arena_start`]); `None` for a cut the model does
/// not implement, for the trivial cut (it cannot implement its own node),
/// and for the arena's dead and non-AND sets. Every pass reads it instead of
/// matching again.
fn match_cuts<M: CostModel>(aig: &Aig, cuts: &CutSet, model: &M) -> Vec<Option<M::Impl>> {
    let mut matches = vec![None; cuts.arena_len()];
    for id in aig.and_ids() {
        let start = cuts.arena_start(id);
        for (slot, cut) in matches[start..].iter_mut().zip(cuts.cuts(id)) {
            if cut.leaves() != [id] {
                *slot = model.implement(&cut);
            }
        }
    }
    matches
}

/// One candidate-selection pass in topological order. Without `required`
/// it is the delay-optimal pass: every implementable cut competes on
/// (arrival, area flow) and a node without one is an error. With `required`
/// it is a recovery pass: only cuts arriving by the node's required time
/// compete, on (area flow, arrival), and a node none of whose cuts qualifies
/// keeps its selection.
fn select<M: CostModel>(
    aig: &Aig,
    cuts: &CutSet,
    matches: &[Option<M::Impl>],
    fanouts: &[u32],
    model: &M,
    state: &mut State<M::Impl>,
    required: Option<&[f64]>,
) -> Result<(), MapError> {
    for id in aig.and_ids() {
        let mut best: Option<(Pick<M::Impl>, f64, f64)> = None;
        let implemented = cuts.leaf_sets(id).zip(&matches[cuts.arena_start(id)..]);
        for (cut_index, (leaves, imp)) in (0..).zip(implemented) {
            let Some(imp) = *imp else {
                continue;
            };
            let mut buf = [0.0; MAX_CUT_LEAVES];
            let arr = model.arrival(imp, gather_leaf_arrivals(leaves, &state.arrival, &mut buf));
            if required.is_some_and(|required| arr > required[id.index()] + EPS) {
                continue;
            }
            let af = model.area(imp)
                + leaves
                    .iter()
                    .map(|l| state.area_flow[l.index()] / f64::max(1.0, fanouts[l.index()] as f64))
                    .sum::<f64>();
            let better = match (&best, required) {
                (None, _) => true,
                (Some((_, b_arr, b_af)), None) => (arr, af) < (*b_arr, *b_af),
                (Some((_, b_arr, b_af)), Some(_)) => (af, arr) < (*b_af, *b_arr),
            };
            if better {
                best = Some((Pick { cut_index, imp }, arr, af));
            }
        }
        match best {
            Some((pick, arr, af)) => {
                state.pick[id.index()] = Some(pick);
                state.arrival[id.index()] = arr;
                state.area_flow[id.index()] = af;
            }
            None if required.is_none() => return Err(MapError::NoMatchableCut { node: id }),
            None => {}
        }
    }
    Ok(())
}

/// Derives the cover induced by `pick` and measures it exactly.
fn derive_cover<M: CostModel>(
    aig: &Aig,
    cuts: &CutSet,
    model: &M,
    pick: &[Option<Pick<M::Impl>>],
) -> Cover {
    let mut needed = vec![false; aig.num_nodes()];
    let mut stack: Vec<NodeId> = aig
        .outputs()
        .iter()
        .map(|l| l.node())
        .filter(|n| aig.node(*n).is_and())
        .collect();
    while let Some(id) = stack.pop() {
        if needed[id.index()] {
            continue;
        }
        needed[id.index()] = true;
        for leaf in picked(pick, id).leaves(cuts, id) {
            if aig.node(*leaf).is_and() {
                stack.push(*leaf);
            }
        }
    }
    let mut arrival = vec![0.0; aig.num_nodes()];
    let mut area = 0.0;
    for id in aig.and_ids() {
        if !needed[id.index()] {
            continue;
        }
        let pick = picked(pick, id);
        let mut buf = [0.0; MAX_CUT_LEAVES];
        let leaf_arrivals = gather_leaf_arrivals(pick.leaves(cuts, id), &arrival, &mut buf);
        arrival[id.index()] = model.arrival(pick.imp, leaf_arrivals);
        area += model.area(pick.imp);
    }
    let (inv_delay, inv_area) = model.output_inverter();
    let mut delay = 0f64;
    for &po in aig.outputs() {
        if matches!(aig.node(po.node()), AigNode::Const) {
            continue;
        }
        let mut arr = arrival[po.node().index()];
        if po.is_complemented() {
            arr += inv_delay;
            area += inv_area;
        }
        delay = delay.max(arr);
    }
    Cover {
        needed,
        arrival,
        area,
        delay,
    }
}

/// Backward required-time propagation over the selection `pick`: every
/// primary output must settle by `target` (minus an output inverter where
/// the PO is complemented), and each selected cut hands its root's
/// requirement to its leaves through [`CostModel::leaf_delays`] (`arrival`
/// supplies the leaf arrivals the model ranks pins by — the DP state during
/// recovery, the final cover's fresh times when annotating the result).
/// Nodes outside the current cover stay permissive at `target`; the recovery
/// loop re-measures the real cover after every pass, so an over-permissive
/// requirement can waste a pass but never corrupt the result.
fn compute_required<M: CostModel>(
    aig: &Aig,
    cuts: &CutSet,
    model: &M,
    pick: &[Option<Pick<M::Impl>>],
    arrival: &[f64],
    target: f64,
) -> Vec<f64> {
    let (inv_delay, _) = model.output_inverter();
    let mut required = vec![f64::INFINITY; aig.num_nodes()];
    for po in aig.outputs() {
        let idx = po.node().index();
        let req = if po.is_complemented() {
            target - inv_delay
        } else {
            target
        };
        required[idx] = required[idx].min(req);
    }
    for id in aig.and_ids().collect::<Vec<_>>().into_iter().rev() {
        if !required[id.index()].is_finite() {
            continue;
        }
        let pick = picked(pick, id);
        let leaves = pick.leaves(cuts, id);
        let mut buf = [0.0; MAX_CUT_LEAVES];
        let delays = model.leaf_delays(pick.imp, gather_leaf_arrivals(leaves, arrival, &mut buf));
        for (leaf, d) in leaves.iter().zip(delays) {
            let req = required[id.index()] - d;
            if required[leaf.index()] > req {
                required[leaf.index()] = req;
            }
        }
    }
    for r in &mut required {
        if !r.is_finite() {
            *r = target;
        }
    }
    required
}
