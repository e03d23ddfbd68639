//! Timing-driven resynthesis of an arithmetic datapath, mirroring the
//! paper's motivating scenario (Fig. 1): conventional passes plateau, then
//! e-graph structural exploration — mapped over the *whole* recorded e-space
//! with the timing-driven choice mapper — recovers additional delay, and the
//! remaining slack is traded back for area by the recovery passes.
//!
//! The flow knobs do all the work here: `with_objective(Delay)` selects the
//! delay-first map → required-time → area-recovery loop,
//! `with_delay_target_ps` sets the timing constraint, and
//! `with_recovery_passes` controls how hard the mapper chases area at fixed
//! timing.
//!
//! Run with: `cargo run --example delay_resynthesis --release`

// Examples abort on broken invariants like test code does; the workspace
// deny on unwrap/expect/panic is relaxed here.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use emorphic::flow::{emorphic_map_flow, MapFlowConfig, MapObjective};
use logic_opt::{balance, rewrite};
use techmap::cell::map_to_cells;
use techmap::library::asap7_like;
use techmap::sop::sop_balance;
use techmap::MapOptions;

fn main() {
    // A multiplier has heavy reconvergence and benefits from restructuring.
    let circuit = benchgen::multiplier(8).aig;
    let library = asap7_like();
    let mapped_delay = |aig: &aig::Aig| {
        map_to_cells(aig, &library, &MapOptions::default())
            .qor()
            .delay_ps
    };

    println!("== conventional technology-independent optimization ==");
    let mut current = circuit.clone();
    let mut last_delay = mapped_delay(&current);
    println!(
        "initial:          delay = {last_delay:.1} ps, {} ANDs",
        current.num_ands()
    );
    for (name, pass) in [
        ("balance", balance as fn(&aig::Aig) -> aig::Aig),
        ("rewrite", rewrite as fn(&aig::Aig) -> aig::Aig),
        ("sop-balance", |a: &aig::Aig| {
            sop_balance(a, &MapOptions::lut6())
        }),
        ("sop-balance", |a: &aig::Aig| {
            sop_balance(a, &MapOptions::lut6())
        }),
    ] {
        current = pass(&current);
        let delay = mapped_delay(&current);
        println!(
            "after {name:<12}: delay = {delay:.1} ps ({:+.1}%), {} ANDs",
            (delay - last_delay) / last_delay * 100.0,
            current.num_ands()
        );
        last_delay = delay;
    }

    println!("\n== E-morphic timing-driven choice mapping ==");
    // Phase 1 — find the achievable critical path: saturate, export the
    // whole e-space as a choice network, and map delay-first with no target
    // (the depth-optimal pass runs over every e-class member's cuts).
    let config = MapFlowConfig::fast()
        .with_objective(MapObjective::Delay)
        .with_recovery_passes(0);
    let optimal = emorphic_map_flow(&current, &config).expect("flow succeeds");
    println!(
        "delay-optimal map: delay = {:.1} ps, area = {:.2} um2, \
         {} e-classes, choices used: {}",
        optimal.qor.delay_ps,
        optimal.qor.area_um2,
        optimal.egraph_classes,
        if optimal.used_choices { "yes" } else { "no" }
    );

    // Phase 2 — the classic synthesis contract: meet a delay target 10%
    // looser than the best achievable, then recover as much area as the
    // slack allows (recovery can swap in a different e-class member's cut).
    let target = optimal.qor.delay_ps * 1.1;
    let relaxed = emorphic_map_flow(
        &current,
        &MapFlowConfig::fast()
            .with_objective(MapObjective::Delay)
            .with_delay_target_ps(target)
            .with_recovery_passes(3),
    )
    .expect("flow succeeds");
    println!(
        "target {target:.1} ps:  delay = {:.1} ps (slack {:+.1} ps), \
         area = {:.2} um2 ({:+.1}% vs delay-optimal)",
        relaxed.qor.delay_ps,
        relaxed.worst_slack_ps,
        relaxed.qor.area_um2,
        (relaxed.qor.area_um2 - optimal.qor.area_um2) / optimal.qor.area_um2 * 100.0,
    );

    // `verified` is only true when CEC *proved* equivalence; false covers
    // both a refuted netlist and an exhausted SAT budget, so don't report
    // it as anything stronger than "not proved".
    let verdict = if relaxed.verified && optimal.verified {
        "proved equivalent"
    } else {
        "NOT PROVED (CEC mismatch or SAT budget exhausted)"
    };
    println!(
        "\nresynthesized netlist: delay = {:.1} ps vs plateau {last_delay:.1} ps \
         ({:+.1}%), {verdict}",
        optimal.qor.delay_ps,
        (optimal.qor.delay_ps - last_delay) / last_delay * 100.0,
    );
}
