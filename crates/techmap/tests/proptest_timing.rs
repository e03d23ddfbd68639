//! Differential timing oracle: an independent, dumb-as-possible topological
//! recompute of arrival times over the final `Netlist` must agree *exactly*
//! (bitwise, no epsilon) with the times the mapper's dynamic program
//! produced, on random circuits and across the mapper's knobs.
//!
//! The oracle deliberately reimplements the timing model from its prose
//! definition — sort leaf arrivals descending, sort pin delays descending,
//! pair rank by rank (padding extra leaves with the slowest pin), arrival =
//! max of the pairwise sums — sharing no code with `techmap::timing`. Since
//! both sides compute each arrival as a max over identical two-operand sums,
//! f64 agreement is exact; any drift in the pairing rule, the cover
//! derivation, or the output-inverter handling shows up as a hard mismatch.
//!
//! The LUT mapper runs the same covering core under the unit model; the same
//! generator feeds it too: the mapped LUT network computes the circuit's
//! function, and one more recovery pass is never deeper and never larger.
//!
//! The cost-only mapping (`try_map_cost`) must report the emitted netlist's
//! delay and area bit for bit, on the same random circuits and on benchgen
//! circuits.
//!
//! `PROPTEST_CASES` scales the coverage (CI pins 2000).

// Helper fns here run outside #[test] context, so the clippy.toml
// test relaxation does not reach them.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use aig::{Aig, NodeId};
use proptest::prelude::*;
use std::collections::HashMap;
use techmap::cell::{try_map_cost, try_map_to_cells, Netlist, OutputDriver};
use techmap::library::asap7_like;
use techmap::lut::{evaluate_mapping, map_to_luts};
use techmap::MapOptions;

/// The oracle's own pairing: worst-case assignment of pin delays to leaves.
fn oracle_gate_arrival(leaf_arrivals: &[f64], pin_delays: &[f64]) -> f64 {
    let mut arrivals: Vec<f64> = leaf_arrivals.to_vec();
    arrivals.sort_by(|a, b| b.total_cmp(a));
    let mut pins: Vec<f64> = pin_delays.to_vec();
    pins.sort_by(|a, b| b.total_cmp(a));
    let slowest = pins.first().copied().unwrap_or(0.0);
    let mut worst = 0.0f64;
    for (rank, a) in arrivals.iter().enumerate() {
        let d = pins.get(rank).copied().unwrap_or(slowest);
        let sum = a + d;
        if sum > worst {
            worst = sum;
        }
    }
    worst
}

/// Recomputes every gate arrival and the critical-path delay of a netlist
/// from scratch, asserting topological gate order along the way.
fn oracle_recompute(netlist: &Netlist, inv_delay_ps: f64) -> (Vec<f64>, f64) {
    let mut arrival: HashMap<NodeId, f64> = HashMap::new();
    let mut gate_arrivals = Vec::with_capacity(netlist.gates.len());
    for gate in &netlist.gates {
        let leaf_arrivals: Vec<f64> = gate
            .leaves
            .iter()
            .map(|l| arrival.get(l).copied().unwrap_or(0.0))
            .collect();
        let arr = oracle_gate_arrival(&leaf_arrivals, &gate.pin_delays_ps);
        assert!(
            !arrival.contains_key(&gate.root),
            "gate root mapped twice: {:?}",
            gate.root
        );
        arrival.insert(gate.root, arr);
        gate_arrivals.push(arr);
    }
    let mut delay = 0.0f64;
    for driver in &netlist.outputs {
        let arr = match driver {
            OutputDriver::Direct(node) => arrival.get(node).copied().unwrap_or(0.0),
            OutputDriver::Inverted(node) => {
                arrival.get(node).copied().unwrap_or(0.0) + inv_delay_ps
            }
            OutputDriver::Constant(_) => continue,
        };
        if arr > delay {
            delay = arr;
        }
    }
    (gate_arrivals, delay)
}

fn check_netlist_against_oracle(aig: &Aig, netlist: &Netlist, inv_delay_ps: f64) {
    // Gate order must be topological over the source AIG ids (the oracle's
    // single forward pass depends on it).
    for gate in &netlist.gates {
        for leaf in &gate.leaves {
            assert!(leaf.index() < gate.root.index(), "leaves precede roots");
        }
    }
    let (gate_arrivals, delay) = oracle_recompute(netlist, inv_delay_ps);
    assert_eq!(
        gate_arrivals.len(),
        netlist.gate_arrivals_ps().len(),
        "one arrival per gate"
    );
    for (g, (oracle, dp)) in gate_arrivals
        .iter()
        .zip(netlist.gate_arrivals_ps())
        .enumerate()
    {
        assert_eq!(
            oracle, dp,
            "arrival mismatch at gate {g} (root {:?}) of {}",
            netlist.gates[g].root, netlist.name
        );
    }
    assert_eq!(delay, netlist.delay_ps(), "critical-path delay mismatch");
    // Required times are consistent with the effective target: every gate
    // has non-negative slack (the target is floored at the critical path).
    assert!(netlist.delay_target_ps() >= delay - 1e-9);
    for gate in &netlist.gates {
        let slack = netlist.slack_ps_of(gate.root).expect("annotated gate");
        assert!(
            slack >= -1e-9,
            "negative slack {slack} at {:?} of {}",
            gate.root,
            netlist.name
        );
    }
    let _ = aig;
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Mapper DP arrivals equal the oracle's on random circuits, across cut
    /// limits, recovery-pass counts and delay targets. On the same circuit
    /// and knobs the LUT cover computes the circuit's function, and one more
    /// recovery pass is never deeper and never uses more LUTs.
    #[test]
    fn mapper_dp_times_match_oracle(
        seed in 0u64..100_000,
        num_ands in 4usize..80,
        num_inputs in 2usize..8,
        num_outputs in 1usize..4,
        cut_limit in 2usize..10,
        area_passes in 0usize..4,
        lut_size in 2usize..7,
        // Below 0.5 means "no target" (the vendored proptest stand-in has
        // no Option strategy).
        target_scale in 0.0f64..3.0,
    ) {
        let circuit = benchgen::random_aig(num_inputs, num_ands, num_outputs, seed);
        let library = asap7_like();
        let inv_delay = library.cell(library.inverter().unwrap()).delay_ps;
        // Resolve a concrete target from the delay-optimal critical path.
        let base = try_map_to_cells(
            &circuit,
            &library,
            &MapOptions { area_passes: 0, cut_limit, ..MapOptions::default() },
        ).expect("mappable");
        check_netlist_against_oracle(&circuit, &base, inv_delay);
        let options = MapOptions {
            cut_limit,
            area_passes,
            delay_target_ps: (target_scale >= 0.5).then(|| base.delay_ps() * target_scale),
            ..MapOptions::default()
        };
        let netlist = try_map_to_cells(&circuit, &library, &options).expect("mappable");
        check_netlist_against_oracle(&circuit, &netlist, inv_delay);
        // The recovered netlist never beats the DP-optimal critical path and
        // never busts the effective target.
        prop_assert!(netlist.delay_ps() >= base.delay_ps() - 1e-9);
        prop_assert!(netlist.delay_ps() <= netlist.delay_target_ps() + 1e-9);
        prop_assert!(netlist.worst_slack_ps() >= -1e-9);

        let lut_options =
            MapOptions { cut_size: lut_size, cut_limit, area_passes, ..MapOptions::default() };
        let mapping = map_to_luts(&circuit, &lut_options);
        for lut in &mapping.luts {
            prop_assert!(lut.cut.leaves().len() <= lut_size);
        }
        for pattern in 0..1usize << num_inputs {
            let bits: Vec<bool> = (0..num_inputs).map(|i| pattern >> i & 1 == 1).collect();
            prop_assert_eq!(
                evaluate_mapping(&circuit, &mapping, &bits),
                circuit.evaluate(&bits),
                "LUT cover differs on pattern {}", pattern
            );
        }
        let more = map_to_luts(&circuit, &lut_options.with_area_passes(area_passes + 1));
        prop_assert!(more.depth <= mapping.depth, "depth {} > {}", more.depth, mapping.depth);
        prop_assert!(more.num_luts() <= mapping.num_luts());
    }

    /// The same differential check over choice networks built from real
    /// saturation is covered in `emorphic`'s proptest suite; here the
    /// choice-free path must stay exact under the LUT-style wide cuts too.
    #[test]
    fn oracle_agrees_on_wide_cut_mappings(
        seed in 0u64..100_000,
        num_ands in 4usize..60,
        num_inputs in 2usize..7,
    ) {
        let circuit = benchgen::random_aig(num_inputs, num_ands, 2, seed);
        let library = asap7_like();
        let inv_delay = library.cell(library.inverter().unwrap()).delay_ps;
        // cut_size is clamped to 4 for cells, but a large requested size
        // still exercises the clamping path.
        let options = MapOptions { cut_size: 6, area_passes: 2, ..MapOptions::default() };
        let netlist = try_map_to_cells(&circuit, &library, &options).expect("mappable");
        check_netlist_against_oracle(&circuit, &netlist, inv_delay);
    }

    /// The cost-only mapping is the emitted netlist's delay and area, bit
    /// for bit, across cut limits, recovery passes and delay targets.
    #[test]
    fn cost_only_mapping_is_the_netlist_qor(
        seed in 0u64..100_000,
        num_ands in 4usize..80,
        num_inputs in 2usize..8,
        num_outputs in 1usize..4,
        cut_limit in 2usize..10,
        area_passes in 0usize..4,
        target_scale in 0.0f64..3.0,
    ) {
        let circuit = benchgen::random_aig(num_inputs, num_ands, num_outputs, seed);
        let library = asap7_like();
        let options = MapOptions { cut_limit, area_passes, ..MapOptions::default() };
        assert_cost_is_netlist_qor(&circuit, &options);
        let target = try_map_cost(&circuit, &library, &options).expect("mappable").0 * target_scale;
        assert_cost_is_netlist_qor(&circuit, &options.with_delay_target_ps(target));
    }
}

/// `try_map_cost` against `try_map_to_cells(..).qor()` under `asap7_like`.
fn assert_cost_is_netlist_qor(circuit: &Aig, options: &MapOptions) {
    let library = asap7_like();
    let (delay, area) = try_map_cost(circuit, &library, options).expect("mappable");
    let qor = try_map_to_cells(circuit, &library, options)
        .expect("mappable")
        .qor();
    assert_eq!(
        (delay.to_bits(), area.to_bits()),
        (qor.delay_ps.to_bits(), qor.area_um2.to_bits()),
        "{} under {options:?}: cost ({delay}, {area}) vs netlist ({}, {})",
        circuit.name(),
        qor.delay_ps,
        qor.area_um2
    );
}

#[test]
fn cost_only_mapping_is_the_netlist_qor_on_benchgen_circuits() {
    let circuits = [
        benchgen::adder(8).aig,
        benchgen::multiplier(4).aig,
        benchgen::arbiter(8).aig,
        benchgen::square_root(8).aig,
    ];
    for circuit in &circuits {
        for area_passes in [0, 1, 3] {
            assert_cost_is_netlist_qor(
                circuit,
                &MapOptions::default().with_area_passes(area_passes),
            );
        }
    }
}
