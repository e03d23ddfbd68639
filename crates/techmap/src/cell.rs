//! Standard-cell technology mapping by NPN Boolean matching on priority cuts.
//!
//! Every AND node is covered by a library cell implementing the function of
//! one of its (at most 4-input) cuts, mirroring the paper's `(st; dch; map)`
//! step: the crate-private `cover` module — the one statement of the
//! *map → required → recover* algorithm — run under the cell model below,
//! and an emitter that turns the kept cover into a timing-annotated
//! [`Netlist`]. Complemented
//! edges internal to a cut are absorbed into the matched cell function; only
//! complemented primary outputs require explicit inverters.
//!
//! The model matches every cut against the library once per mapping (the
//! covering core keeps the match, one NPN class slot per cut, for all its
//! passes) and times cells through pin delays the library sorted when the
//! cell was added. [`try_map_cost`] stops after the cover: it returns the
//! netlist's delay and area without emitting it, for callers that score
//! many mappings and keep none — the annealing extractor scores every
//! candidate with it. [`try_map_to_cells`] is the same cover plus the
//! emitter.

use crate::cover::{cover, CostModel, Covering};
use crate::cuts::{try_enumerate, Cut, CutSet, CutsOptions, MAX_CUT_LEAVES};
use crate::library::CellLibrary;
use crate::qor::Qor;
use crate::timing::{assign_sorted_pin_delays, gate_arrival_sorted};
use crate::truth::{expand_to_4, full_mask};
use crate::{MapError, MapOptions};
use aig::{Aig, AigNode, FxHashMap, Lit, NodeId};
use choices::ChoiceAig;
use std::num::NonZeroU8;

mod audit;

pub use self::audit::audit_netlist;

/// One instantiated cell in the mapped netlist.
#[derive(Debug, Clone)]
pub struct MappedGate {
    /// Index of the cell in the library.
    pub cell: usize,
    /// Human-readable cell name.
    pub cell_name: String,
    /// The AIG node this gate implements (its positive phase).
    pub root: NodeId,
    /// The cut leaves feeding this gate (variable order of `truth`).
    pub leaves: Vec<NodeId>,
    /// The implemented function over the leaves.
    pub truth: u64,
    /// Cell area in µm².
    pub area_um2: f64,
    /// Worst-case cell delay in ps (max of [`MappedGate::pin_delays_ps`]).
    pub delay_ps: f64,
    /// Pin-to-output delays of the instantiated cell in ps, applied to the
    /// leaves through the conservative sorted pairing of [`crate::timing`].
    pub pin_delays_ps: Vec<f64>,
}

/// How each primary output is driven in the mapped netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputDriver {
    /// Driven by the positive phase of a mapped node or primary input.
    Direct(NodeId),
    /// Driven through an inverter from a mapped node or primary input.
    Inverted(NodeId),
    /// Tied to a constant value.
    Constant(bool),
}

/// A mapped standard-cell netlist with its quality metrics and full static
/// timing annotation (per-gate arrival and required times under the
/// load-independent pin-to-pin model of [`crate::timing`]).
#[derive(Debug, Clone)]
pub struct Netlist {
    /// Design name.
    pub name: String,
    /// The mapped gates in topological order.
    pub gates: Vec<MappedGate>,
    /// Driver of each primary output.
    pub outputs: Vec<OutputDriver>,
    /// Number of inverter cells added for complemented outputs.
    pub num_inverters: usize,
    area_um2: f64,
    delay_ps: f64,
    levels: u32,
    /// Arrival time (ps) of each gate's output, aligned with `gates`.
    arrival_ps: Vec<f64>,
    /// Required time (ps) of each gate's output, aligned with `gates`.
    required_ps: Vec<f64>,
    /// The effective required time at every primary output: the delay
    /// target, floored at the delay-optimal critical path.
    target_ps: f64,
    /// Gate index by root node.
    gate_index: FxHashMap<NodeId, usize>,
}

impl Netlist {
    /// Total cell area in µm².
    pub fn area_um2(&self) -> f64 {
        self.area_um2
    }

    /// Critical-path delay in ps.
    pub fn delay_ps(&self) -> f64 {
        self.delay_ps
    }

    /// Number of logic levels on the critical path.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Number of gates (including output inverters).
    pub fn num_gates(&self) -> usize {
        self.gates.len() + self.num_inverters
    }

    /// The effective required time at the primary outputs in ps: the
    /// requested delay target, floored at the delay-optimal critical path
    /// (a target the cut set cannot meet is reported as unmet slack, never
    /// as a fictitious required time below what is achievable).
    pub fn delay_target_ps(&self) -> f64 {
        self.target_ps
    }

    /// Arrival time of a mapped gate root in ps (`None` for primary inputs
    /// — which arrive at 0 — and nodes off the cover).
    pub fn arrival_ps_of(&self, node: NodeId) -> Option<f64> {
        self.gate_index.get(&node).map(|&g| self.arrival_ps[g])
    }

    /// Required time of a mapped gate root in ps (`None` off the cover).
    pub fn required_ps_of(&self, node: NodeId) -> Option<f64> {
        self.gate_index.get(&node).map(|&g| self.required_ps[g])
    }

    /// Slack of a mapped gate root in ps: required minus arrival. Negative
    /// slack appears only when the delay target is below the achievable
    /// critical path.
    pub fn slack_ps_of(&self, node: NodeId) -> Option<f64> {
        let g = *self.gate_index.get(&node)?;
        Some(self.required_ps[g] - self.arrival_ps[g])
    }

    /// Worst slack over the primary outputs in ps: effective target minus
    /// critical-path delay (non-negative by construction).
    pub fn worst_slack_ps(&self) -> f64 {
        self.target_ps - self.delay_ps
    }

    /// Per-gate arrival times (aligned with [`Netlist::gates`]).
    pub fn gate_arrivals_ps(&self) -> &[f64] {
        &self.arrival_ps
    }

    /// Per-gate required times (aligned with [`Netlist::gates`]).
    pub fn gate_requireds_ps(&self) -> &[f64] {
        &self.required_ps
    }

    /// Returns the quality-of-results record of this netlist.
    pub fn qor(&self) -> Qor {
        Qor {
            name: self.name.clone(),
            area_um2: self.area_um2,
            delay_ps: self.delay_ps,
            levels: self.levels,
            gates: self.num_gates(),
        }
    }

    /// Evaluates the netlist on one input pattern of the original AIG
    /// (used by verification tests).
    pub fn evaluate(&self, aig: &Aig, inputs: &[bool]) -> Vec<bool> {
        let mut values = vec![false; aig.num_nodes()];
        for (i, &pi) in aig.inputs().iter().enumerate() {
            values[pi.index()] = inputs[i];
        }
        for gate in &self.gates {
            let mut minterm = 0usize;
            for (i, leaf) in gate.leaves.iter().enumerate() {
                if values[leaf.index()] {
                    minterm |= 1 << i;
                }
            }
            values[gate.root.index()] = gate.truth >> minterm & 1 == 1;
        }
        self.outputs
            .iter()
            .map(|driver| match driver {
                OutputDriver::Direct(node) => values[node.index()],
                OutputDriver::Inverted(node) => !values[node.index()],
                OutputDriver::Constant(value) => *value,
            })
            .collect()
    }

    /// Reconstructs a technology-independent AIG computing the netlist's
    /// function (each gate re-synthesized from its truth table by Shannon
    /// decomposition over the cut leaves), so a mapped result can be
    /// CEC-verified against the original circuit with the SAT machinery.
    ///
    /// `source` is the AIG the netlist was mapped from; it supplies the
    /// node-id space of the gate roots/leaves and the input/output names.
    ///
    /// Not an [`Aig::rebuild`] rule: the walk is over the netlist's own gate
    /// list, and the name and the output drivers are the netlist's, not the
    /// source's.
    pub fn to_aig(&self, source: &Aig) -> Aig {
        let mut fresh = Aig::new(self.name.clone());
        let mut lits: Vec<Option<Lit>> = vec![None; source.num_nodes()];
        lits[NodeId::CONST.index()] = Some(Lit::FALSE);
        for (idx, &pi) in source.inputs().iter().enumerate() {
            lits[pi.index()] = Some(fresh.add_input(source.input_name(idx)));
        }
        for gate in &self.gates {
            let leaves: Vec<Lit> = gate
                .leaves
                .iter()
                .map(|l| {
                    lits[l.index()].unwrap_or_else(|| unreachable!("gate leaves precede the gate"))
                })
                .collect();
            lits[gate.root.index()] = Some(synthesize_truth(&mut fresh, gate.truth, &leaves));
        }
        for (idx, driver) in self.outputs.iter().enumerate() {
            let lit = match driver {
                OutputDriver::Direct(node) => {
                    lits[node.index()].unwrap_or_else(|| unreachable!("mapped output driver"))
                }
                OutputDriver::Inverted(node) => lits[node.index()]
                    .unwrap_or_else(|| unreachable!("mapped output driver"))
                    .not(),
                OutputDriver::Constant(true) => Lit::TRUE,
                OutputDriver::Constant(false) => Lit::FALSE,
            };
            fresh.add_output(lit, source.output_name(idx));
        }
        fresh.cleanup()
    }
}

/// Builds an AIG cone computing `truth` over the given leaf literals by
/// Shannon decomposition (structural hashing shares common cofactors).
fn synthesize_truth(aig: &mut Aig, truth: u64, leaves: &[Lit]) -> Lit {
    let mask = full_mask(leaves.len());
    let t = truth & mask;
    if t == 0 {
        return Lit::FALSE;
    }
    if t == mask {
        return Lit::TRUE;
    }
    let k = leaves.len() - 1;
    let half = 1usize << k;
    let lo = full_mask(k);
    let f0 = synthesize_truth(aig, t & lo, &leaves[..k]);
    let f1 = synthesize_truth(aig, (t >> half) & lo, &leaves[..k]);
    aig.mux(leaves[k], f1, f0)
}

/// The standard-cell cost model: a cut is implemented by the library's best
/// NPN match of its function, timed through the conservative sorted pin
/// pairing of [`crate::timing`] over the library's pre-sorted pin delays; a
/// complemented primary output costs one inverter.
struct CellModel<'a> {
    library: &'a CellLibrary,
    /// `(delay_ps, area_um2)` of the library's inverter.
    inverter: (f64, f64),
}

impl<'a> CellModel<'a> {
    /// The model of `library`, which must have an inverter.
    fn new(library: &'a CellLibrary) -> Result<Self, MapError> {
        let inverter = library.cell(library.inverter().ok_or(MapError::MissingInverter)?);
        Ok(CellModel {
            library,
            inverter: (inverter.delay_ps, inverter.area_um2),
        })
    }
}

impl CostModel for CellModel<'_> {
    /// The matched NPN class's slot in the library
    /// ([`CellLibrary::slot_cell`] names the cell).
    type Impl = NonZeroU8;

    fn implement(&self, cut: &Cut) -> Option<NonZeroU8> {
        // NPN tables are `u16`: matching is 4-input limited.
        if cut.size() > 4 {
            return None;
        }
        self.library.match_slot(expand_to_4(cut.truth, cut.size()))
    }

    fn arrival(&self, slot: NonZeroU8, leaf_arrivals: &[f64]) -> f64 {
        let pins = self.library.sorted_pins(self.library.slot_cell(slot));
        gate_arrival_sorted(leaf_arrivals, pins)
    }

    fn area(&self, slot: NonZeroU8) -> f64 {
        self.library.cell(self.library.slot_cell(slot)).area_um2
    }

    fn leaf_delays(&self, slot: NonZeroU8, leaf_arrivals: &[f64]) -> [f64; MAX_CUT_LEAVES] {
        let pins = self.library.sorted_pins(self.library.slot_cell(slot));
        assign_sorted_pin_delays(leaf_arrivals, pins)
    }

    fn output_inverter(&self) -> (f64, f64) {
        self.inverter
    }
}

/// A network covered under the [`CellModel`]: what [`try_map_cost`] reads
/// its cost from and [`try_map_to_cells`] emits.
struct CellCover<'a> {
    cuts: CutSet,
    model: CellModel<'a>,
    covering: Covering<NonZeroU8>,
}

/// Enumerates the cuts of `aig` (pooled over `choices` when given) and
/// covers it under the [`CellModel`] of `library`.
fn cover_cells<'a>(
    aig: &Aig,
    choices: Option<&ChoiceAig>,
    library: &'a CellLibrary,
    options: &MapOptions,
) -> Result<CellCover<'a>, MapError> {
    let cuts = try_enumerate(aig, choices, &cell_cut_options(options))?;
    let model = CellModel::new(library)?;
    let covering = cover(
        aig,
        &cuts,
        &model,
        options.area_passes,
        options.delay_target_ps,
    )?;
    Ok(CellCover {
        cuts,
        model,
        covering,
    })
}

/// Maps an AIG onto the given standard-cell library.
///
/// # Panics
/// Panics if the library lacks an inverter or cannot realize a 2-input AND
/// (every well-formed library can), or if `options.cut_limit` or the network
/// is too large for the cut enumerator; [`try_map_to_cells`] reports the
/// same conditions as a typed [`MapError`] instead.
// The panic is the documented contract; `try_map_to_cells` is the
// non-panicking form.
#[allow(clippy::panic)]
pub fn map_to_cells(aig: &Aig, library: &CellLibrary, options: &MapOptions) -> Netlist {
    try_map_to_cells(aig, library, options).unwrap_or_else(|e| panic!("{e}"))
}

/// Maps an AIG onto the given standard-cell library, reporting unmappable
/// inputs as a typed error.
///
/// # Errors
/// Returns a [`MapError`] if the library lacks an inverter, some node has
/// no realizable cut, or `options.cut_limit` / the network is too large for
/// the cut enumerator ([`MapError::CutSetTooLarge`]).
pub fn try_map_to_cells(
    aig: &Aig,
    library: &CellLibrary,
    options: &MapOptions,
) -> Result<Netlist, MapError> {
    cover_cells(aig, None, library, options).map(|covered| emit(aig, &covered))
}

/// The cost of mapping an AIG onto the library: `(delay_ps, area_um2)` of
/// the netlist [`try_map_to_cells`] would return — bit for bit its
/// [`Netlist::qor`] delay and area — from the same cover, without emitting
/// the netlist or annotating its required times. For callers that score
/// mappings and throw the netlist away.
///
/// # Errors
/// Returns a [`MapError`] under the conditions of [`try_map_to_cells`].
pub fn try_map_cost(
    aig: &Aig,
    library: &CellLibrary,
    options: &MapOptions,
) -> Result<(f64, f64), MapError> {
    let cover = cover_cells(aig, None, library, options)?.covering.cover;
    Ok((cover.delay, cover.area))
}

/// Maps a choice network onto the given standard-cell library: cuts are
/// enumerated across *all* members of every choice class (see
/// [`crate::cuts::enumerate_cuts_with_choices`]), so each covered signal picks the
/// cheapest realization over all recorded structures, not just the extracted
/// representative.
///
/// # Errors
/// Returns a [`MapError`] under the conditions of [`try_map_to_cells`].
pub fn try_map_to_cells_with_choices(
    choices: &ChoiceAig,
    library: &CellLibrary,
    options: &MapOptions,
) -> Result<Netlist, MapError> {
    let aig = choices.aig();
    cover_cells(aig, Some(choices), library, options).map(|covered| emit(aig, &covered))
}

/// Standard-cell matching is 4-input limited (NPN tables are `u16`).
fn cell_cut_options(options: &MapOptions) -> CutsOptions {
    CutsOptions {
        cut_size: options.cut_size.min(4),
        cut_limit: options.cut_limit,
    }
}

/// Emits a kept cover as a netlist with per-gate timing annotation.
fn emit(aig: &Aig, covered: &CellCover<'_>) -> Netlist {
    let CellCover {
        cuts,
        model,
        covering,
    } = covered;
    let library = model.library;
    let mut gates = Vec::new();
    let mut gate_index: FxHashMap<NodeId, usize> = FxHashMap::default();
    let mut arrival_ps = Vec::new();
    let mut level = vec![0u32; aig.num_nodes()];
    for (id, cut, slot) in covering.roots(aig, cuts) {
        let cell_index = library.slot_cell(slot);
        let cell = library.cell(cell_index);
        level[id.index()] = 1 + cut
            .leaves()
            .iter()
            .map(|l| level[l.index()])
            .max()
            .unwrap_or(0);
        gate_index.insert(id, gates.len());
        arrival_ps.push(covering.cover.arrival[id.index()]);
        gates.push(MappedGate {
            cell: cell_index,
            cell_name: cell.name.clone(),
            root: id,
            leaves: cut.leaves().to_vec(),
            truth: cut.truth,
            area_um2: cell.area_um2,
            delay_ps: cell.delay_ps,
            pin_delays_ps: cell.pin_delays_ps.clone(),
        });
    }

    // Output drivers: add inverters where the PO uses the complemented phase.
    let mut outputs = Vec::with_capacity(aig.num_outputs());
    let mut num_inverters = 0usize;
    let mut levels: u32 = 0;
    for &po in aig.outputs() {
        let node = po.node();
        let driver = match aig.node(node) {
            AigNode::Const => OutputDriver::Constant(po.is_complemented()),
            _ => {
                let lev = level[node.index()];
                if po.is_complemented() {
                    num_inverters += 1;
                    levels = levels.max(lev + 1);
                    OutputDriver::Inverted(node)
                } else {
                    levels = levels.max(lev);
                    OutputDriver::Direct(node)
                }
            }
        };
        outputs.push(driver);
    }

    let required = covering.required(aig, cuts, model);
    let required_ps: Vec<f64> = gates.iter().map(|g| required[g.root.index()]).collect();

    Netlist {
        name: aig.name().to_string(),
        gates,
        outputs,
        num_inverters,
        area_um2: covering.cover.area,
        delay_ps: covering.cover.delay,
        levels,
        arrival_ps,
        required_ps,
        target_ps: covering.target,
        gate_index,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::asap7_like;

    fn adder(width: usize) -> Aig {
        let mut aig = Aig::new("adder");
        let a: Vec<_> = (0..width).map(|i| aig.add_input(format!("a{i}"))).collect();
        let b: Vec<_> = (0..width).map(|i| aig.add_input(format!("b{i}"))).collect();
        let mut carry = aig::Lit::FALSE;
        for i in 0..width {
            let axb = aig.xor(a[i], b[i]);
            let sum = aig.xor(axb, carry);
            let cout = aig.maj3(a[i], b[i], carry);
            aig.add_output(sum, format!("s{i}"));
            carry = cout;
        }
        aig.add_output(carry, "cout");
        aig
    }

    fn check_netlist_equiv(aig: &Aig, netlist: &Netlist) {
        assert!(aig.num_inputs() <= 12);
        for pattern in 0..(1usize << aig.num_inputs()) {
            let bits: Vec<bool> = (0..aig.num_inputs())
                .map(|i| pattern >> i & 1 == 1)
                .collect();
            assert_eq!(
                netlist.evaluate(aig, &bits),
                aig.evaluate(&bits),
                "pattern {pattern}"
            );
        }
    }

    #[test]
    fn mapping_preserves_function() {
        let aig = adder(3);
        let lib = asap7_like();
        let netlist = map_to_cells(&aig, &lib, &MapOptions::default());
        check_netlist_equiv(&aig, &netlist);
    }

    #[test]
    fn qor_metrics_are_sane() {
        let aig = adder(8);
        let lib = asap7_like();
        let netlist = map_to_cells(&aig, &lib, &MapOptions::default());
        let qor = netlist.qor();
        assert!(qor.area_um2 > 0.5, "area {}", qor.area_um2);
        assert!(qor.delay_ps > 50.0, "delay {}", qor.delay_ps);
        assert!(qor.levels >= 4);
        assert!(qor.gates >= 20);
        // The mapped gate count must not exceed the AND count (cells cover
        // multiple AND nodes), plus output inverters.
        assert!(qor.gates <= aig.num_ands() + aig.num_outputs());
    }

    #[test]
    fn complemented_outputs_get_inverters() {
        let mut aig = Aig::new("inv");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let f = aig.and(a, b);
        aig.add_output(f.not(), "nf");
        aig.add_output(f, "f");
        let lib = asap7_like();
        let netlist = map_to_cells(&aig, &lib, &MapOptions::default());
        // Either the NAND is mapped directly and the positive output needs an
        // inverter, or the AND is mapped and the complemented output needs
        // one; both are valid, but there is exactly one inverter.
        assert_eq!(netlist.num_inverters, 1);
        check_netlist_equiv(&aig, &netlist);
    }

    #[test]
    fn constant_outputs_are_tied() {
        let mut aig = Aig::new("consts");
        let _a = aig.add_input("a");
        aig.add_output(aig::Lit::TRUE, "one");
        aig.add_output(aig::Lit::FALSE, "zero");
        let lib = asap7_like();
        let netlist = map_to_cells(&aig, &lib, &MapOptions::default());
        assert_eq!(netlist.outputs[0], OutputDriver::Constant(true));
        assert_eq!(netlist.outputs[1], OutputDriver::Constant(false));
        assert_eq!(netlist.num_gates(), 0);
        assert_eq!(netlist.qor().delay_ps, 0.0);
    }

    #[test]
    fn area_recovery_does_not_hurt_delay() {
        let aig = adder(6);
        let lib = asap7_like();
        let with_recovery = map_to_cells(&aig, &lib, &MapOptions::default());
        let without_recovery = map_to_cells(
            &aig,
            &lib,
            &MapOptions {
                area_passes: 0,
                ..MapOptions::default()
            },
        );
        assert!(with_recovery.delay_ps() <= without_recovery.delay_ps() + 1e-6);
        assert!(with_recovery.area_um2() <= without_recovery.area_um2() + 1e-6);
    }

    #[test]
    fn xor_maps_to_few_gates() {
        let mut aig = Aig::new("xor");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let x = aig.xor(a, b);
        aig.add_output(x, "x");
        let lib = asap7_like();
        let netlist = map_to_cells(&aig, &lib, &MapOptions::default());
        // A single XOR2 cell should cover the whole cone.
        assert_eq!(netlist.gates.len(), 1);
        assert!(
            netlist.gates[0].cell_name.starts_with("XOR")
                || netlist.gates[0].cell_name.starts_with("XNOR")
        );
        check_netlist_equiv(&aig, &netlist);
    }

    #[test]
    fn timing_annotation_is_self_consistent() {
        let aig = adder(5);
        let lib = asap7_like();
        let netlist = map_to_cells(&aig, &lib, &MapOptions::default());
        // Recompute every gate arrival independently in topological order.
        let mut arr: FxHashMap<aig::NodeId, f64> = FxHashMap::default();
        for (g, gate) in netlist.gates.iter().enumerate() {
            let leaf_arrivals: Vec<f64> = gate
                .leaves
                .iter()
                .map(|l| arr.get(l).copied().unwrap_or(0.0))
                .collect();
            let recomputed = crate::timing::gate_arrival(&leaf_arrivals, &gate.pin_delays_ps);
            assert_eq!(recomputed, netlist.gate_arrivals_ps()[g]);
            assert_eq!(netlist.arrival_ps_of(gate.root), Some(recomputed));
            arr.insert(gate.root, recomputed);
        }
        // With no delay target, the effective target is the critical path,
        // output slack is exactly zero and every gate has non-negative slack.
        assert_eq!(netlist.delay_target_ps(), netlist.delay_ps());
        assert_eq!(netlist.worst_slack_ps(), 0.0);
        for gate in &netlist.gates {
            let slack = netlist.slack_ps_of(gate.root).unwrap();
            assert!(slack >= -1e-9, "gate {:?} slack {slack}", gate.root);
            assert!(
                netlist.required_ps_of(gate.root).unwrap()
                    >= netlist.arrival_ps_of(gate.root).unwrap() - 1e-9
            );
        }
        // Primary inputs are not gate roots.
        assert_eq!(netlist.arrival_ps_of(aig.inputs()[0]), None);
    }

    #[test]
    fn delay_target_trades_slack_for_area_but_never_busts() {
        let aig = adder(6);
        let lib = asap7_like();
        let optimal = map_to_cells(
            &aig,
            &lib,
            &MapOptions {
                area_passes: 0,
                ..MapOptions::default()
            },
        );
        let target = optimal.delay_ps() * 1.5;
        let relaxed = map_to_cells(
            &aig,
            &lib,
            &MapOptions::default()
                .with_delay_target_ps(target)
                .with_area_passes(3),
        );
        assert!((relaxed.delay_target_ps() - target).abs() < 1e-9);
        assert!(relaxed.delay_ps() <= target + 1e-9);
        assert!(relaxed.area_um2() <= optimal.area_um2() + 1e-9);
        assert!(relaxed.worst_slack_ps() >= -1e-9);
        check_netlist_equiv(&aig, &relaxed);
        // A target below the achievable critical path is floored at it.
        let floored = map_to_cells(&aig, &lib, &MapOptions::default().with_delay_target_ps(1.0));
        assert!(floored.delay_target_ps() >= optimal.delay_ps() - 1e-9);
        assert!(floored.delay_ps() >= optimal.delay_ps() - 1e-9);
    }

    #[test]
    fn try_map_reports_missing_inverter() {
        let aig = adder(2);
        let empty = CellLibrary::new();
        let err = try_map_to_cells(&aig, &empty, &MapOptions::default()).unwrap_err();
        assert_eq!(err, crate::MapError::MissingInverter);
    }

    #[test]
    fn an_oversized_cut_limit_is_a_typed_error() {
        // One past what the enumerator's 16-bit parent-cut indices hold.
        let lib = asap7_like();
        let at = |cut_limit| MapOptions {
            cut_limit,
            ..MapOptions::default()
        };
        let aig = adder(2);
        let too_large = |nodes| MapError::CutSetTooLarge {
            nodes,
            cut_limit: 65_535,
        };
        assert_eq!(
            try_map_to_cells(&aig, &lib, &at(65_535)).unwrap_err(),
            too_large(aig.num_nodes())
        );
        let network = choice_network();
        assert_eq!(
            try_map_to_cells_with_choices(&network, &lib, &at(65_535)).unwrap_err(),
            too_large(network.aig().num_nodes())
        );
        // The largest accepted limit maps like any limit the cut sets never reach.
        let widest = try_map_to_cells(&aig, &lib, &at(65_534)).unwrap();
        let default = try_map_to_cells(&aig, &lib, &at(8)).unwrap();
        assert_eq!(widest.area_um2(), default.area_um2());
        assert_eq!(widest.delay_ps(), default.delay_ps());
    }

    #[test]
    fn a_network_too_large_for_the_cut_arena_is_a_typed_error() {
        // 70 000 nodes × 65 535 cuts per set is beyond 32-bit arena offsets;
        // the refusal comes before any cut is computed.
        let mut aig = Aig::new("chain");
        let inputs = aig.add_inputs("x", 8);
        let mut acc = inputs[0];
        for i in 0..70_000 {
            acc = aig.and(acc.not(), inputs[1 + i % 7]);
        }
        aig.add_output(acc, "f");
        assert!(aig.num_ands() >= 70_000);
        let options = MapOptions {
            cut_limit: 65_534,
            ..MapOptions::default()
        };
        assert_eq!(
            try_map_to_cells(&aig, &asap7_like(), &options).unwrap_err(),
            MapError::CutSetTooLarge {
                nodes: aig.num_nodes(),
                cut_limit: 65_534
            }
        );
    }

    #[test]
    fn netlist_to_aig_is_equivalent() {
        let aig = adder(4);
        let lib = asap7_like();
        let netlist = map_to_cells(&aig, &lib, &MapOptions::default());
        let back = netlist.to_aig(&aig);
        assert_eq!(back.num_inputs(), aig.num_inputs());
        assert_eq!(back.num_outputs(), aig.num_outputs());
        for pattern in 0..(1usize << aig.num_inputs()) {
            let bits: Vec<bool> = (0..aig.num_inputs())
                .map(|i| pattern >> i & 1 == 1)
                .collect();
            assert_eq!(
                back.evaluate(&bits),
                aig.evaluate(&bits),
                "pattern {pattern}"
            );
        }
    }

    /// A network carrying the POS shape of `(a & b) | c` as a choice for the
    /// SOP representative (the alternative cone is built first: the
    /// representative must be the topologically last member of its class).
    fn choice_network() -> ChoiceAig {
        let mut aig = Aig::new("choice");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let a_or_c = aig.or(a, c);
        let b_or_c = aig.or(b, c);
        let f2 = aig.and(a_or_c, b_or_c);
        let ab = aig.and(a, b);
        let f1 = aig.or(ab, c);
        aig.add_output(f1, "f");
        let classes = vec![choices::ChoiceClass {
            members: vec![
                aig::Lit::new(f1.node(), false),
                aig::Lit::new(f2.node(), true),
            ],
        }];
        ChoiceAig::new(aig, classes).unwrap()
    }

    #[test]
    fn choice_mapping_preserves_function() {
        let network = choice_network();
        let lib = asap7_like();
        let netlist =
            try_map_to_cells_with_choices(&network, &lib, &MapOptions::default()).unwrap();
        check_netlist_equiv(network.aig(), &netlist);
        let back = netlist.to_aig(network.aig());
        for pattern in 0..8usize {
            let bits: Vec<bool> = (0..3).map(|i| pattern >> i & 1 == 1).collect();
            let expected = (bits[0] && bits[1]) || bits[2];
            assert_eq!(back.evaluate(&bits), vec![expected], "pattern {pattern}");
        }
    }

    #[test]
    fn choice_mapping_not_worse_than_trivial_choices() {
        // Mapping with a class can only add cuts over the representative
        // cone, so the mapped area must not regress against the same network
        // with the class removed.
        let network = choice_network();
        let lib = asap7_like();
        let with_choices =
            try_map_to_cells_with_choices(&network, &lib, &MapOptions::default()).unwrap();
        let trivial = ChoiceAig::trivial(network.aig().clone());
        let without =
            try_map_to_cells_with_choices(&trivial, &lib, &MapOptions::default()).unwrap();
        assert!(with_choices.area_um2() <= without.area_um2() + 1e-9);
    }

    #[test]
    fn deeper_logic_has_higher_delay() {
        let lib = asap7_like();
        let small = adder(2);
        let large = adder(10);
        let q_small = map_to_cells(&small, &lib, &MapOptions::default()).qor();
        let q_large = map_to_cells(&large, &lib, &MapOptions::default()).qor();
        assert!(q_large.delay_ps > q_small.delay_ps);
        assert!(q_large.area_um2 > q_small.area_um2);
    }
}
