//! The learned cost model's training set: structural variants of suite
//! circuits labelled by the real technology mapper (the OpenABC-D stand-in).

use crate::saturated;
use aig::Aig;
use costmodel::{CostEvaluator, LearnedCost, TechMapCost};
use emorphic::extract::sa::generate_neighbor;
use emorphic::extract::ExtractionCost;
use emorphic::{bottom_up_extract, selection_to_aig, Selection};
use logic_opt::{balance, refactor, rewrite};
use rand::SeedableRng;
use techmap::library::asap7_like;

/// Generates structural variants of a circuit: technology-independent pass
/// combinations plus e-graph extractions with different seeds.
pub fn structural_variants(circuit: &Aig, variants: usize, seed: u64) -> Vec<Aig> {
    let mut out = vec![
        circuit.clone(),
        balance(circuit),
        rewrite(circuit),
        refactor(&balance(circuit)),
    ];
    if out.len() >= variants {
        out.truncate(variants);
        return out;
    }
    // E-graph-derived variants: different annealing seeds give different
    // extracted structures.
    let state = saturated(circuit, 3, 30_000, 500);
    let realize = |selection: &Selection| {
        selection_to_aig(
            &state.egraph,
            selection,
            &state.roots,
            &state.input_names,
            &state.output_names,
            circuit.name(),
        )
    };
    let (greedy, _) = bottom_up_extract(&state.egraph, ExtractionCost::Size);
    out.push(realize(&greedy));
    let parent_index = state.egraph.parent_index();
    let mut index = 0u64;
    while out.len() < variants {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ index);
        let cost = if index.is_multiple_of(2) {
            ExtractionCost::Size
        } else {
            ExtractionCost::Depth
        };
        let neighbor =
            generate_neighbor(&state.egraph, &parent_index, &greedy, cost, 0.3, &mut rng);
        out.push(realize(&neighbor));
        index += 1;
    }
    out
}

/// Trains the learned delay model on structural variants of the given
/// circuits, labelled with the real technology mapper. Returns the model plus
/// the held-out predictions and labels used for MAPE / Kendall τ reporting.
pub fn train_learned_model(
    circuits: &[Aig],
    variants_per_circuit: usize,
) -> (LearnedCost, Vec<f64>, Vec<f64>) {
    let mapper = TechMapCost::new(asap7_like());
    let mut samples: Vec<(Aig, f64)> = Vec::new();
    for (i, circuit) in circuits.iter().enumerate() {
        for variant in structural_variants(circuit, variants_per_circuit, 0xC0DE + i as u64) {
            let delay = mapper.qor(&variant).delay_ps;
            samples.push((variant, delay));
        }
    }
    // Hold out every 4th sample for evaluation.
    let mut train = Vec::new();
    let mut held_out = Vec::new();
    for (i, sample) in samples.into_iter().enumerate() {
        if i % 4 == 3 {
            held_out.push(sample);
        } else {
            train.push(sample);
        }
    }
    let model = LearnedCost::train(&train, 1e-2);
    let predictions: Vec<f64> = held_out
        .iter()
        .map(|(aig, _)| model.evaluate(aig))
        .collect();
    let truth: Vec<f64> = held_out.iter().map(|(_, d)| *d).collect();
    (model, predictions, truth)
}
