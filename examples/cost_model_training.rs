//! Train the learned (runtime-prioritized) cost model on structural variants
//! of a few circuits, evaluate its prediction quality, and use it to guide
//! simulated-annealing extraction.
//!
//! Run with: `cargo run --example cost_model_training --release`

use costmodel::metrics::{kendall_tau, mape};
use costmodel::{CircuitFeatures, CostEvaluator, LearnedCost, TechMapCost};
use emorphic::extract::sa::{SaEngine, SaOptions};
use emorphic::{aig_to_egraph, all_rules, selection_to_aig, ExtractBudget};
use logic_opt::{balance, refactor, rewrite};
use techmap::library::asap7_like;

fn main() {
    let mapper = TechMapCost::new(asap7_like());

    // 1. Build a labelled training set: structural variants of small
    //    arithmetic circuits, labelled with the real post-mapping delay.
    let mut samples: Vec<(aig::Aig, f64)> = Vec::new();
    for circuit in [
        benchgen::adder(6).aig,
        benchgen::adder(10).aig,
        benchgen::multiplier(4).aig,
        benchgen::multiplier(6).aig,
        benchgen::square(5).aig,
    ] {
        for variant in [
            circuit.clone(),
            balance(&circuit),
            rewrite(&circuit),
            refactor(&balance(&circuit)),
        ] {
            let delay = mapper.qor(&variant).delay_ps;
            samples.push((variant, delay));
        }
    }
    println!(
        "training set: {} labelled structural samples",
        samples.len()
    );
    println!(
        "feature vector: {} features ({:?} ...)",
        costmodel::features::FEATURE_NAMES.len(),
        &costmodel::features::FEATURE_NAMES[..4]
    );

    // 2. Train / evaluate with a held-out split.
    let (train, test): (Vec<_>, Vec<_>) = samples
        .into_iter()
        .enumerate()
        .partition(|(i, _)| i % 4 != 3);
    let train: Vec<(aig::Aig, f64)> = train.into_iter().map(|(_, s)| s).collect();
    let test: Vec<(aig::Aig, f64)> = test.into_iter().map(|(_, s)| s).collect();
    let model = LearnedCost::train(&train, 1e-2);
    let predictions: Vec<f64> = test.iter().map(|(aig, _)| model.evaluate(aig)).collect();
    let truth: Vec<f64> = test.iter().map(|(_, d)| *d).collect();
    println!(
        "held-out quality: MAPE = {:.1}%, Kendall tau = {:.2} over {} samples",
        mape(&predictions, &truth),
        kendall_tau(&predictions, &truth),
        test.len()
    );

    // 3. Inspect the features of one circuit.
    let probe = benchgen::adder(8).aig;
    let features = CircuitFeatures::extract(&probe);
    println!(
        "\nadder(8) features: ands={:.0} depth={:.0} predicted delay={:.1} ps, mapped delay={:.1} ps",
        features.values()[0],
        features.values()[3],
        model.evaluate(&probe),
        mapper.qor(&probe).delay_ps
    );

    // 4. Use the learned model to guide SA extraction (runtime mode).
    let conversion = aig_to_egraph(&probe);
    let runner = egraph::Runner::with_egraph(conversion.egraph.clone())
        .with_iter_limit(3)
        .with_node_limit(30_000)
        .run(&all_rules());
    let saturated = emorphic::convert::ConversionResult {
        roots: conversion
            .roots
            .iter()
            .map(|&r| runner.egraph.find(r))
            .collect(),
        egraph: runner.egraph,
        ..conversion
    };
    let sa = SaEngine::new(
        SaOptions {
            iterations: 3,
            threads: 2,
            ..SaOptions::default()
        },
        std::sync::Arc::new(model),
    );
    let guided = match sa.anneal(
        &saturated.egraph,
        &saturated.roots,
        &ExtractBudget::unlimited(),
    ) {
        Ok(guided) => guided,
        Err(e) => {
            println!("SA extraction failed: {e}");
            return;
        }
    };
    let guided_aig = selection_to_aig(
        &saturated.egraph,
        &guided.best_selection,
        &saturated.roots,
        &saturated.input_names,
        &saturated.output_names,
        &saturated.name,
    );
    let true_delay = mapper.qor(&guided_aig).delay_ps;
    println!(
        "\nSA guided by the learned model: predicted cost {:.1}, true mapped delay {:.1} ps \
         (extraction took {:.2}s)",
        guided.best_cost,
        true_delay,
        guided.runtime.as_secs_f64()
    );
    let ok = cec::check_equivalence(&probe, &guided_aig, &cec::CecOptions::default());
    println!(
        "extracted circuit equivalent to the original: {}",
        ok.is_equivalent()
    );
}
