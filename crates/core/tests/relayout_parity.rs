//! `SaturatedState::relayout` is the state a checkpoint restores to: on
//! circuits prepared and saturated as the job server does under
//! `FlowConfig::fast()`, the relaid-out state and
//! `FlowCheckpoint::capture(..).restore()` iterate the same classes with the
//! same roots, and every extraction engine returns the same selection, class
//! costs and work counts from both.

// Helper fns here run outside #[test] context, so the clippy.toml
// test relaxation does not reach them.
#![allow(clippy::unwrap_used)]

use egraph::Id;
use emorphic::extract::{
    BottomUpEngine, ExtractionCost, ExtractionEngine, GlobalGreedyDagEngine, PortfolioEngine,
    SaEngine, SlackAwareEngine,
};
use emorphic::flow::{prepare_network, saturate_network, FlowConfig, SaturatedState};
use emorphic::{BoolLang, FlowCheckpoint};

fn engines(config: &FlowConfig) -> Vec<Box<dyn ExtractionEngine>> {
    let sa = || SaEngine::new(config.sa.clone(), config.library.clone());
    let mut engines: Vec<Box<dyn ExtractionEngine>> = Vec::new();
    for cost in [ExtractionCost::Size, ExtractionCost::Depth] {
        for pruned in [true, false] {
            engines.push(Box::new(BottomUpEngine::new(cost).with_pruning(pruned)));
        }
    }
    engines.push(Box::new(GlobalGreedyDagEngine::new()));
    engines.push(Box::new(SlackAwareEngine::new()));
    engines.push(Box::new(sa()));
    engines.push(Box::new(PortfolioEngine::new(vec![
        Box::new(BottomUpEngine::new(ExtractionCost::Size)),
        Box::new(GlobalGreedyDagEngine::new()),
        Box::new(SlackAwareEngine::new()),
        Box::new(sa()),
    ])));
    engines
}

/// What an engine returns, in an order that does not depend on hashing.
type Outcome = (Vec<(Id, BoolLang)>, Vec<(Id, u64)>, usize, usize);

fn outcome(engine: &dyn ExtractionEngine, state: &SaturatedState, config: &FlowConfig) -> Outcome {
    let extraction = engine
        .extract(&state.egraph, &state.roots, &config.extract_budget)
        .unwrap();
    let mut selection: Vec<(Id, BoolLang)> = extraction.selection.choices.into_iter().collect();
    selection.sort_unstable();
    let mut costs: Vec<(Id, u64)> = extraction.class_costs.into_iter().collect();
    costs.sort_unstable();
    let stats = extraction.stats;
    (selection, costs, stats.nodes_evaluated, stats.improvements)
}

#[test]
fn every_engine_extracts_the_same_from_the_relaid_out_and_the_restored_state() {
    let config = FlowConfig::fast();
    for aig in [
        benchgen::adder(8).aig,
        benchgen::mem_ctrl(5).aig,
        benchgen::multiplier(4).aig,
    ] {
        let state = saturate_network(&prepare_network(&aig, &config), &config);
        let relaid = state.relayout();
        let restored = FlowCheckpoint::capture(&state).restore().unwrap();
        let ids = |s: &SaturatedState| -> Vec<Id> { s.egraph.classes().map(|c| c.id).collect() };
        assert_eq!(ids(&relaid), ids(&restored), "{}", aig.name());
        assert_eq!(relaid.roots, restored.roots, "{}", aig.name());
        for engine in engines(&config) {
            assert_eq!(
                outcome(engine.as_ref(), &relaid, &config),
                outcome(engine.as_ref(), &restored, &config),
                "{} / {}",
                aig.name(),
                engine.name()
            );
        }
    }
}
