//! The [`CostEvaluator`] trait and its two implementations.

use crate::features::CircuitFeatures;
use crate::regression::RidgeModel;
use aig::Aig;
use techmap::library::CellLibrary;
use techmap::{cell::map_to_cells, MapOptions, Qor};

/// Evaluates the quality of an extracted circuit.
///
/// The simulated-annealing extractor in the `emorphic` crate is generic over
/// this trait; the paper's "quality-prioritized" and "runtime-prioritized"
/// modes correspond to [`TechMapCost`] and [`LearnedCost`] respectively.
pub trait CostEvaluator: Send + Sync {
    /// Returns a scalar cost (lower is better) for the candidate circuit.
    fn evaluate(&self, aig: &Aig) -> f64;

    /// Human-readable name of the evaluator (used in reports).
    fn name(&self) -> &str;
}

/// Weight of area (µm²) added to the delay cost as a tie-breaker.
const AREA_WEIGHT: f64 = 0.01;

/// Quality-prioritized cost: full standard-cell mapping under the default
/// [`MapOptions`], cost = delay (ps) plus a small area tie-breaker.
#[derive(Debug, Clone)]
pub struct TechMapCost {
    /// The cell library used for mapping.
    pub library: CellLibrary,
}

impl TechMapCost {
    /// Creates a delay-dominated cost with a mild area tie-breaker.
    pub fn new(library: CellLibrary) -> Self {
        TechMapCost { library }
    }

    /// Maps the circuit and returns the full QoR record (used for reporting).
    pub fn qor(&self, aig: &Aig) -> Qor {
        map_to_cells(aig, &self.library, &MapOptions::default()).qor()
    }
}

impl CostEvaluator for TechMapCost {
    fn evaluate(&self, aig: &Aig) -> f64 {
        let qor = self.qor(aig);
        qor.delay_ps + AREA_WEIGHT * qor.area_um2
    }

    fn name(&self) -> &str {
        "techmap-delay"
    }
}

/// Runtime-prioritized cost: predicted delay from structural features.
#[derive(Debug, Clone, PartialEq)]
pub struct LearnedCost {
    /// The trained regression model.
    pub model: RidgeModel,
}

impl LearnedCost {
    /// Wraps a trained model.
    pub fn new(model: RidgeModel) -> Self {
        LearnedCost { model }
    }

    /// Trains a model from labelled circuits: each sample is a circuit plus
    /// its measured post-mapping delay.
    pub fn train(samples: &[(Aig, f64)], lambda: f64) -> Self {
        let features: Vec<Vec<f64>> = samples
            .iter()
            .map(|(aig, _)| CircuitFeatures::extract(aig).values().to_vec())
            .collect();
        let targets: Vec<f64> = samples.iter().map(|(_, delay)| *delay).collect();
        LearnedCost {
            model: RidgeModel::fit(&features, &targets, lambda),
        }
    }
}

impl CostEvaluator for LearnedCost {
    fn evaluate(&self, aig: &Aig) -> f64 {
        self.model.predict(CircuitFeatures::extract(aig).values())
    }

    fn name(&self) -> &str {
        "learned-delay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use techmap::library::asap7_like;

    fn chain(width: usize) -> Aig {
        let mut aig = Aig::new(format!("chain{width}"));
        let inputs = aig.add_inputs("x", width);
        let mut acc = inputs[0];
        for &lit in &inputs[1..] {
            acc = aig.and(acc, lit);
        }
        aig.add_output(acc, "f");
        aig
    }

    fn adder(width: usize) -> Aig {
        let mut aig = Aig::new(format!("adder{width}"));
        let a: Vec<_> = (0..width).map(|i| aig.add_input(format!("a{i}"))).collect();
        let b: Vec<_> = (0..width).map(|i| aig.add_input(format!("b{i}"))).collect();
        let mut carry = aig::Lit::FALSE;
        for i in 0..width {
            let axb = aig.xor(a[i], b[i]);
            let s = aig.xor(axb, carry);
            carry = aig.maj3(a[i], b[i], carry);
            aig.add_output(s, format!("s{i}"));
        }
        aig.add_output(carry, "cout");
        aig
    }

    #[test]
    fn techmap_cost_orders_by_depth() {
        let evaluator = TechMapCost::new(asap7_like());
        let shallow = evaluator.evaluate(&chain(4));
        let deep = evaluator.evaluate(&chain(32));
        assert!(deep > shallow);
        assert_eq!(evaluator.name(), "techmap-delay");
    }

    #[test]
    fn learned_cost_tracks_techmap_on_training_family() {
        // Train on adders of several widths labelled with the real mapper and
        // check the prediction ranks an unseen width correctly.
        let mapper = TechMapCost::new(asap7_like());
        let samples: Vec<(Aig, f64)> = [2usize, 3, 4, 6, 8, 10, 12]
            .iter()
            .map(|&w| {
                let circuit = adder(w);
                let delay = mapper.qor(&circuit).delay_ps;
                (circuit, delay)
            })
            .collect();
        let learned = LearnedCost::train(&samples, 1e-3);
        let small = learned.evaluate(&adder(5));
        let large = learned.evaluate(&adder(11));
        assert!(
            large > small,
            "learned model should rank deeper adders as slower"
        );
        assert_eq!(learned.name(), "learned-delay");
    }

    #[test]
    fn learned_cost_is_much_cheaper_than_mapping() {
        use std::time::Instant;
        let mapper = TechMapCost::new(asap7_like());
        let circuit = adder(16);
        let samples: Vec<(Aig, f64)> =
            vec![(adder(4), 100.0), (adder(8), 200.0), (adder(12), 300.0)];
        let learned = LearnedCost::train(&samples, 1e-3);
        let t0 = Instant::now();
        let _ = mapper.evaluate(&circuit);
        let mapping_time = t0.elapsed();
        let t1 = Instant::now();
        let _ = learned.evaluate(&circuit);
        let learned_time = t1.elapsed();
        assert!(
            learned_time < mapping_time,
            "{learned_time:?} vs {mapping_time:?}"
        );
    }
}
