//! Simulated-annealing e-graph extraction (paper Fig. 4 and Algorithm 1).
//!
//! The extractor starts from a greedy bottom-up solution, repeatedly
//! generates neighboring solutions by re-selecting e-nodes bottom-up with a
//! controlled amount of randomness, scores each candidate by mapping it to
//! standard cells, and accepts or rejects moves with the Metropolis criterion
//! under the Section IV-A cooling schedule. Several annealing chains run in
//! parallel ([`egraph::pool`]) and the best mapped solution wins.
//! [`SaEngine`] is the extractor behind the [`ExtractionEngine`] trait.
//!
//! A run numbers the e-graph once as a [`CostGraph`] and lends it to the
//! realizability check, the greedy seed and every chain: each neighbour is
//! one run of the cost kernel over it (see the module docs of
//! [`crate::extract`]). A candidate's score is the cost-only mapping
//! [`try_map_cost`] — the delay and area `map_to_cells` would report, bit for
//! bit, without emitting the netlist nobody reads. A library the candidates
//! cannot be mapped to is an [`ExtractError::Map`], a candidate that does not
//! convert back into a circuit an [`ExtractError::Selection`].

use crate::convert::try_selection_to_aig;
use crate::extract::engine::{
    synthetic_names, ExtractBudget, ExtractError, Extraction, ExtractionEngine,
};
use crate::extract::{CostGraph, Costed, ExtractStats, ExtractionCost, Selection};
use crate::lang::BoolLang;
use egraph::pool::for_each_indexed;
use egraph::{EGraph, FxHashMap, Id};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;
use techmap::cell::try_map_cost;
use techmap::library::CellLibrary;
use techmap::MapOptions;

/// Weight of area (µm²) added to the mapped delay (ps) as a tie-breaker.
const AREA_WEIGHT: f64 = 0.01;

/// Initial temperature `T1` of every chain (the paper's 2000).
const INITIAL_TEMPERATURE: f64 = 2000.0;

/// Probability of rejecting an improving move during neighbor generation
/// (`p_random` in Algorithm 1, the paper's 0.1), which keeps structural
/// diversity.
const P_RANDOM: f64 = 0.1;

/// Structural cost of the greedy seed and of neighbor generation (Algorithm
/// 1's "depth cost").
const NEIGHBOR_COST: ExtractionCost = ExtractionCost::Depth;

/// Options of the simulated-annealing extractor. `Default` is the paper's
/// configuration; `T1`, `p_random` and the neighbor cost are fixed at the
/// paper's values.
#[derive(Debug, Clone, PartialEq)]
pub struct SaOptions {
    /// Number of annealing iterations per chain (the paper uses 4).
    pub iterations: usize,
    /// Number of parallel annealing chains (4 in the paper).
    pub threads: usize,
    /// RNG seed; each chain derives its own stream from it.
    pub seed: u64,
}

impl Default for SaOptions {
    fn default() -> Self {
        SaOptions {
            iterations: 4,
            threads: 4,
            seed: 0xE40,
        }
    }
}

impl SaOptions {
    /// A reduced configuration for unit tests and examples.
    pub fn fast() -> Self {
        SaOptions {
            iterations: 2,
            threads: 2,
            ..SaOptions::default()
        }
    }

    /// Sets the number of annealing iterations per chain.
    #[must_use]
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Sets the number of parallel annealing chains.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the RNG seed (each chain derives its own stream from it).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Outcome of one annealing chain.
#[derive(Debug, Clone)]
pub struct ChainResult {
    /// Best cost reached by the chain.
    pub best_cost: f64,
    /// The chain's statistics: `nodes_evaluated` counts candidate circuits
    /// evaluated, `improvements` counts accepted moves.
    pub stats: ExtractStats,
}

/// The detailed result of one SA run ([`SaEngine::anneal`]).
#[derive(Debug)]
pub struct SaResult {
    /// The best e-node selection across all chains.
    pub best_selection: Selection,
    /// Its candidate cost (mapped delay plus the area tie-breaker).
    pub best_cost: f64,
    /// Cost of the greedy initial solution (before annealing).
    pub initial_cost: f64,
    /// Per-chain outcomes.
    pub chains: Vec<ChainResult>,
    /// Aggregate statistics over all chains (runtime is wall-clock, not the
    /// sum of chain times).
    pub stats: ExtractStats,
}

/// The core SA run. Port names are synthesized once for the candidate
/// circuits (the cost maps the netlist; names are irrelevant to it).
///
/// A candidate's cost is its mapped delay in ps plus [`AREA_WEIGHT`] times its
/// mapped area in µm², under `library` and the default [`MapOptions`].
///
/// # Errors
/// The first error a candidate hits, in chain order: its selection cannot be
/// converted back into a circuit, or its mapping fails.
fn anneal(
    egraph: &EGraph<BoolLang>,
    graph: &CostGraph,
    roots: &[Id],
    library: &CellLibrary,
    options: &SaOptions,
    iterations: usize,
) -> Result<SaResult, ExtractError> {
    let start = Instant::now();
    let (input_names, output_names) = synthetic_names(egraph, roots.len());
    let candidate_cost = |selection: &Selection| -> Result<f64, ExtractError> {
        let candidate = try_selection_to_aig(
            egraph,
            selection,
            roots,
            &input_names,
            &output_names,
            "sa-extracted",
        )?;
        let (delay, area) = try_map_cost(&candidate, library, &MapOptions::default())?;
        Ok(delay + AREA_WEIGHT * area)
    };

    let neighbor_of =
        |rng: &mut StdRng| generate_neighbor(graph, NEIGHBOR_COST, P_RANDOM, rng).selection;

    // Greedy initial solution shared by all chains.
    let initial_selection = graph.bottom_up(NEIGHBOR_COST).selection;
    let initial_cost = candidate_cost(&initial_selection)?;

    // One worker per chain; every chain returns `Some`.
    let chain_count = options.threads.max(1);
    let chain_outputs = for_each_indexed(
        chain_count,
        chain_count,
        || (),
        |chain_index, ()| {
            Some(run_chain(
                &neighbor_of,
                &candidate_cost,
                &initial_selection,
                initial_cost,
                options.seed,
                iterations,
                chain_index,
            ))
        },
    );

    let mut best_selection = initial_selection;
    let mut best_cost = initial_cost;
    let mut chains = Vec::with_capacity(chain_count);
    let mut stats = ExtractStats::default();
    for output in chain_outputs.into_iter().flatten() {
        let (selection, chain) = output?;
        if chain.best_cost < best_cost {
            best_cost = chain.best_cost;
            best_selection = selection;
        }
        stats.nodes_evaluated += chain.stats.nodes_evaluated;
        stats.improvements += chain.stats.improvements;
        chains.push(chain);
    }
    stats.runtime = start.elapsed();

    Ok(SaResult {
        best_selection,
        best_cost,
        initial_cost,
        chains,
        stats,
    })
}

fn run_chain(
    neighbor_of: &(dyn Fn(&mut StdRng) -> Selection + Sync),
    candidate_cost: &(dyn Fn(&Selection) -> Result<f64, ExtractError> + Sync),
    initial_selection: &Selection,
    initial_cost: f64,
    seed: u64,
    iterations: usize,
    chain_index: usize,
) -> Result<(Selection, ChainResult), ExtractError> {
    let mut rng = StdRng::seed_from_u64(seed ^ (chain_index as u64).wrapping_mul(0x9E37_79B9));
    let mut current_cost = initial_cost;
    let mut best_selection = initial_selection.clone();
    let mut best_cost = initial_cost;
    let mut temperature = INITIAL_TEMPERATURE;
    let mut stats = ExtractStats::default();

    for iteration in 1..=iterations {
        let neighbor = neighbor_of(&mut rng);
        let cost = candidate_cost(&neighbor)?;
        stats.nodes_evaluated += 1;
        let delta = cost - current_cost;

        let accept = if delta < 0.0 {
            true
        } else {
            // Metropolis criterion.
            let prob = (-delta / temperature.max(1e-9)).exp();
            rng.random::<f64>() < prob
        };
        if accept {
            current_cost = cost;
            stats.improvements += 1;
            if cost < best_cost {
                best_cost = cost;
                best_selection = neighbor;
            }
        }

        temperature = cooled_temperature(temperature, delta, iteration, iterations);
    }

    Ok((best_selection, ChainResult { best_cost, stats }))
}

/// The SA extractor, as an [`ExtractionEngine`].
///
/// The budget's `max_evaluations` caps the total candidate evaluations
/// across all chains by shortening each chain deterministically.
#[derive(Debug)]
pub struct SaEngine {
    options: SaOptions,
    library: CellLibrary,
}

impl SaEngine {
    /// Creates an SA engine that scores every candidate by mapping it to
    /// `library`.
    pub fn new(options: SaOptions, library: CellLibrary) -> Self {
        SaEngine { options, library }
    }

    /// Runs the annealing and returns its detailed result (initial and best
    /// cost, per-chain outcomes); [`ExtractionEngine::extract`] keeps only
    /// the best selection.
    ///
    /// # Errors
    /// [`ExtractError::Unrealizable`] if a root class has no realizable term,
    /// [`ExtractError::Selection`] if a candidate does not convert back into
    /// a circuit, [`ExtractError::Map`] if a candidate cannot be mapped to
    /// the library.
    pub fn anneal(
        &self,
        egraph: &EGraph<BoolLang>,
        roots: &[Id],
        budget: &ExtractBudget,
    ) -> Result<SaResult, ExtractError> {
        self.run(egraph, roots, budget).map(|(result, _)| result)
    }

    /// The SA run plus the size costs of the realizability check.
    fn run(
        &self,
        egraph: &EGraph<BoolLang>,
        roots: &[Id],
        budget: &ExtractBudget,
    ) -> Result<(SaResult, FxHashMap<Id, u64>), ExtractError> {
        let threads = self.options.threads.max(1);
        let iterations = match budget.max_evaluations {
            Some(max) => (max as usize / threads).min(self.options.iterations),
            None => self.options.iterations,
        };
        // One cost graph per run, lent to the realizability check, the
        // greedy seed and every chain's neighbor generation.
        let graph = CostGraph::new(egraph);
        // Realizability check up front: SA's greedy seed panics on
        // unrealizable roots, the engine API reports them as typed errors.
        let (seed_selection, class_costs, _) = graph.bottom_up(ExtractionCost::Size).into_parts();
        for &root in roots {
            let root = egraph.find(root);
            if !seed_selection.choices.contains_key(&root) {
                return Err(ExtractError::Unrealizable(root));
            }
        }
        let result = anneal(
            egraph,
            &graph,
            roots,
            &self.library,
            &self.options,
            iterations,
        )?;
        Ok((result, class_costs))
    }
}

impl ExtractionEngine for SaEngine {
    fn name(&self) -> &'static str {
        "sa"
    }

    fn extract(
        &self,
        egraph: &EGraph<BoolLang>,
        roots: &[Id],
        budget: &ExtractBudget,
    ) -> Result<Extraction, ExtractError> {
        let start = Instant::now();
        let (result, class_costs) = self.run(egraph, roots, budget)?;
        let mut stats = result.stats;
        stats.runtime = start.elapsed();
        Ok(Extraction {
            selection: result.best_selection,
            class_costs,
            stats,
        })
    }
}

/// The Section IV-A cooling schedule, applied at the end of `iteration`
/// (1-based) to produce the temperature for the next iteration.
///
/// The first iteration keeps the high starting temperature `T1`; the middle
/// iterations scale by `|Δcost| / (n * 10000)`; the temperature entering the
/// final iteration scales by `|Δcost| / n`. Two guards keep the schedule from
/// degenerating: iteration 1 never scales (the old code cooled immediately,
/// discarding `T1` after a single step), and a `Δcost == 0` (or non-finite)
/// iteration keeps the previous temperature — multiplying by `|0|` would
/// collapse it to the `1e-6` floor and silently turn the rest of the chain
/// into hill-climbing. The keep-`T1` guard takes precedence, so a chain with
/// `total_iterations <= 2` never cools at all — both of its iterations
/// explore at `T1`, with solution quality protected by best-cost tracking.
fn cooled_temperature(
    temperature: f64,
    delta: f64,
    iteration: usize,
    total_iterations: usize,
) -> f64 {
    if iteration <= 1 || delta == 0.0 || !delta.is_finite() {
        return temperature;
    }
    let n = iteration as f64;
    let scaled = if iteration + 1 < total_iterations {
        temperature * delta.abs() / (n * 10_000.0)
    } else {
        temperature * delta.abs() / n
    };
    scaled.max(1e-6)
}

/// Algorithm 1: generate a neighboring solution by traversing the e-graph
/// bottom-up from the leaves, re-selecting e-nodes that improve the cached
/// class cost, with probability `p_random` of skipping an improvement.
///
/// `graph` is the e-graph's [`CostGraph`]; callers that generate many
/// neighbors (the annealing chains) build it once and reuse it across calls
/// instead of paying for it per neighbor. The neighbor is the result's
/// `selection`, which picks a node for every realizable class: a class's
/// first cost is always accepted. It reads the graph and the RNG and nothing
/// else — not the solution the chain currently holds.
pub fn generate_neighbor<'g>(
    graph: &'g CostGraph,
    cost_kind: ExtractionCost,
    p_random: f64,
    rng: &mut StdRng,
) -> Costed<'g> {
    // Line 15 of Algorithm 1: accept the update when the class is uncosted,
    // or when it improves and the random draw does not veto it.
    let accept = |previous: Option<u64>, new_cost: u64| match previous {
        None => true,
        Some(prev) => new_cost < prev && rng.random::<f64>() >= p_random,
    };
    graph.fixpoint(cost_kind, accept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::{aig_to_egraph, ConversionResult};
    use crate::rules::all_rules;
    use aig::Aig;
    use cec::{check_equivalence, CecOptions};
    use egraph::{Runner, Scheduler};
    use techmap::cell::map_to_cells;
    use techmap::library::{asap7_like, Cell};
    use techmap::MapError;

    fn saturated_conversion(aig: &Aig, iters: usize) -> ConversionResult {
        let conv = aig_to_egraph(aig);
        let runner = Runner::with_egraph(conv.egraph.clone())
            .with_iter_limit(iters)
            .with_node_limit(15_000)
            .with_scheduler(Scheduler::Backoff {
                match_limit: 1_000,
                ban_length: 2,
            })
            .run(&all_rules());
        ConversionResult {
            roots: conv.roots.iter().map(|&r| runner.egraph.find(r)).collect(),
            egraph: runner.egraph,
            ..conv
        }
    }

    #[test]
    fn cooling_keeps_t1_through_the_first_iteration() {
        // Section IV-A: the chain starts at T1 and the first iteration must
        // not cool it.
        assert_eq!(cooled_temperature(2000.0, 57.0, 1, 4), 2000.0);
        // From the second iteration on, the middle-phase scaling applies.
        let t3 = cooled_temperature(2000.0, 50.0, 2, 4);
        assert!((t3 - 2000.0 * 50.0 / (2.0 * 10_000.0)).abs() < 1e-12);
        // The temperature entering the final iteration scales by |Δ| / n.
        let t4 = cooled_temperature(2000.0, 50.0, 3, 4);
        assert!((t4 - 2000.0 * 50.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn zero_delta_does_not_collapse_temperature() {
        // A rejected/neutral move (Δ == 0) used to multiply the temperature
        // by |0| and pin it to the 1e-6 floor for the rest of the chain.
        assert_eq!(cooled_temperature(1500.0, 0.0, 2, 4), 1500.0);
        assert_eq!(cooled_temperature(1500.0, -0.0, 3, 4), 1500.0);
        assert_eq!(cooled_temperature(1500.0, f64::NAN, 2, 4), 1500.0);
        // A genuine non-zero delta still cools below the input.
        assert!(cooled_temperature(1500.0, 1.0, 2, 4) < 1500.0);
        // And the floor still applies to real cooling.
        assert!(cooled_temperature(1e-5, 1e-9, 2, 4) >= 1e-6);
    }

    #[test]
    fn builder_knobs_compose() {
        let options = SaOptions::default()
            .with_iterations(7)
            .with_threads(3)
            .with_seed(42);
        assert_eq!(options.iterations, 7);
        assert_eq!(options.threads, 3);
        assert_eq!(options.seed, 42);
    }

    #[test]
    fn neighbor_generation_preserves_function() {
        let aig = benchgen::adder(4).aig;
        let conv = saturated_conversion(&aig, 3);
        let graph = CostGraph::new(&conv.egraph);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..5 {
            let neighbor =
                generate_neighbor(&graph, ExtractionCost::Depth, 0.3, &mut rng).selection;
            let back = try_selection_to_aig(
                &conv.egraph,
                &neighbor,
                &conv.roots,
                &conv.input_names,
                &conv.output_names,
                "neighbor",
            )
            .unwrap();
            let res = check_equivalence(&aig, &back, &CecOptions::default());
            assert!(res.is_equivalent(), "{res:?}");
        }
    }

    fn anneal_with(conv: &ConversionResult, options: SaOptions) -> SaResult {
        anneal_under(conv, options, asap7_like())
    }

    fn anneal_under(conv: &ConversionResult, options: SaOptions, library: CellLibrary) -> SaResult {
        SaEngine::new(options, library)
            .anneal(&conv.egraph, &conv.roots, &ExtractBudget::unlimited())
            .unwrap()
    }

    /// The candidate cost, stated independently of `anneal`.
    fn mapped_cost(aig: &Aig, library: &CellLibrary) -> f64 {
        let qor = map_to_cells(aig, library, &MapOptions::default()).qor();
        qor.delay_ps + 0.01 * qor.area_um2
    }

    fn realize(conv: &ConversionResult, selection: &Selection) -> Aig {
        try_selection_to_aig(
            &conv.egraph,
            selection,
            &conv.roots,
            &conv.input_names,
            &conv.output_names,
            &conv.name,
        )
        .unwrap()
    }

    fn and_chain(width: usize) -> Aig {
        let mut aig = Aig::new(format!("chain{width}"));
        let inputs = aig.add_inputs("x", width);
        let mut acc = inputs[0];
        for &lit in &inputs[1..] {
            acc = aig.and(acc, lit);
        }
        aig.add_output(acc, "f");
        aig
    }

    #[test]
    fn sa_extraction_finds_valid_and_not_worse_solution() {
        let aig = benchgen::adder(5).aig;
        let conv = saturated_conversion(&aig, 3);
        let result = anneal_with(&conv, SaOptions::fast());
        assert!(result.best_cost <= result.initial_cost);
        assert_eq!(result.chains.len(), 2);
        for chain in &result.chains {
            assert_eq!(chain.stats.nodes_evaluated, 2);
            assert!(chain.stats.improvements <= chain.stats.nodes_evaluated);
        }
        assert_eq!(result.stats.nodes_evaluated, 4);
        // The reported best selection realizes a circuit equivalent to the
        // input, at the reported best cost.
        let realized = realize(&conv, &result.best_selection);
        assert!(check_equivalence(&aig, &realized, &CecOptions::default()).is_equivalent());
        assert_eq!(mapped_cost(&realized, &asap7_like()), result.best_cost);
    }

    #[test]
    fn sa_scores_candidates_under_the_library_it_is_handed() {
        // The flow hands `config.library` to the engine, and the job server
        // keys re-extractions on the whole config: a library change has to
        // change the scores.
        let conv = saturated_conversion(&benchgen::adder(5).aig, 3);
        let fast = asap7_like();
        let mut slow = CellLibrary::new();
        for cell in fast.cells() {
            slow.add(Cell::with_pin_delays(
                cell.name.clone(),
                cell.num_inputs,
                cell.function,
                cell.area_um2,
                cell.pin_delays_ps.iter().map(|d| 2.0 * d).collect(),
            ));
        }
        assert!(slow
            .cells()
            .zip(fast.cells())
            .all(|(s, f)| s.delay_ps == 2.0 * f.delay_ps));
        let mut costs = Vec::new();
        for library in [fast, slow] {
            let result = anneal_under(&conv, SaOptions::fast(), library.clone());
            let realized = realize(&conv, &result.best_selection);
            assert_eq!(result.best_cost, mapped_cost(&realized, &library));
            costs.push(result.best_cost);
        }
        assert_ne!(costs[0], costs[1]);

        // A deeper circuit costs more: the greedy seed of an unsaturated
        // chain is the chain itself.
        let seed_cost = |width: usize| {
            let conv = aig_to_egraph(&and_chain(width));
            anneal_with(&conv, SaOptions::fast().with_iterations(0)).initial_cost
        };
        assert!(seed_cost(32) > seed_cost(4));
    }

    #[test]
    fn deterministic_given_seed_and_single_thread() {
        let aig = benchgen::adder(4).aig;
        let conv = saturated_conversion(&aig, 2);
        let options = SaOptions::default()
            .with_threads(1)
            .with_iterations(2)
            .with_seed(7);
        let a = anneal_with(&conv, options.clone());
        let b = anneal_with(&conv, options);
        assert_eq!(a.best_cost, b.best_cost);
        assert_eq!(
            a.chains[0].stats.improvements,
            b.chains[0].stats.improvements
        );
    }

    #[test]
    fn more_threads_never_hurt_best_cost() {
        let aig = benchgen::adder(4).aig;
        let conv = saturated_conversion(&aig, 3);
        let options = SaOptions::default().with_iterations(2).with_seed(3);
        let single = anneal_with(&conv, options.clone().with_threads(1));
        let quad = anneal_with(&conv, options.with_threads(4));
        // The single-thread chain is one of the four (same seed), so the
        // parallel best can only be equal or better.
        assert!(quad.best_cost <= single.best_cost + 1e-9);
    }

    #[test]
    fn sa_reports_a_library_without_an_inverter_as_a_typed_error() {
        let conv = saturated_conversion(&benchgen::adder(4).aig, 2);
        let library = crate::extract::test_util::library_without_inverter();
        let result = SaEngine::new(SaOptions::fast(), library).extract(
            &conv.egraph,
            &conv.roots,
            &ExtractBudget::unlimited(),
        );
        assert_eq!(
            result.unwrap_err(),
            ExtractError::Map(MapError::MissingInverter)
        );
    }

    #[test]
    fn sa_engine_is_budget_capped_and_equivalent() {
        let aig = benchgen::adder(4).aig;
        let conv = saturated_conversion(&aig, 3);
        let engine = SaEngine::new(SaOptions::fast().with_seed(11), asap7_like());
        // 2 threads × 2 iterations uncapped; a budget of 2 evaluations caps
        // each chain at 1 iteration.
        let capped = engine
            .extract(
                &conv.egraph,
                &conv.roots,
                &ExtractBudget::unlimited().with_max_evaluations(2),
            )
            .unwrap();
        assert_eq!(capped.stats.nodes_evaluated, 2);
        let full = engine
            .extract(&conv.egraph, &conv.roots, &ExtractBudget::unlimited())
            .unwrap();
        assert_eq!(full.stats.nodes_evaluated, 4);
        let back = try_selection_to_aig(
            &conv.egraph,
            &full.selection,
            &conv.roots,
            &conv.input_names,
            &conv.output_names,
            "sa-engine",
        )
        .unwrap();
        assert!(check_equivalence(&aig, &back, &CecOptions::default()).is_equivalent());
    }
}
