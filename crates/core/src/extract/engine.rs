//! The [`ExtractionEngine`] trait: one API over every way of pulling a
//! concrete design out of the saturated e-space, plus the deterministic
//! [`PortfolioEngine`] that races several engines in parallel.

use crate::extract::{try_selection_cost, CostGraph, ExtractStats, ExtractionCost, Selection};
use crate::lang::BoolLang;
use egraph::pool::for_each_indexed;
use egraph::{EGraph, FxHashMap, Id, SelectionError};
use std::time::Instant;
use techmap::cell::try_map_cost;
use techmap::library::CellLibrary;
use techmap::{MapError, MapOptions};

/// Work limits handed to an engine.
///
/// `max_evaluations` is expressed in abstract work units (candidate e-node
/// evaluations) and no engine reads a clock, so a budgeted run is
/// **deterministic** — the same budget always cuts the search at the same
/// point regardless of machine speed. Engines are *anytime*: refinement
/// engines start from a complete bottom-up base selection, so an exhausted
/// budget yields a valid (merely less optimized) extraction, never an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExtractBudget {
    /// Maximum candidate evaluations (`None` = unlimited).
    pub max_evaluations: Option<u64>,
}

impl ExtractBudget {
    /// No limits: every engine runs to its natural fixpoint.
    pub fn unlimited() -> Self {
        ExtractBudget::default()
    }

    /// Caps candidate evaluations (deterministic work-unit budget).
    #[must_use]
    pub fn with_max_evaluations(mut self, max: u64) -> Self {
        self.max_evaluations = Some(max);
        self
    }

    /// Returns `true` once `evaluations` work units exhaust the budget.
    /// Engines ask before every evaluation, so a budget of `n` admits
    /// exactly `n`.
    pub(crate) fn exhausted(&self, evaluations: u64) -> bool {
        self.max_evaluations.is_some_and(|max| evaluations >= max)
    }
}

/// Why an extraction failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtractError {
    /// A root class has no realizable term (no finite-cost selection).
    Unrealizable(Id),
    /// The produced selection was incomplete or cyclic (an engine bug
    /// surfaced by the checked cost/conversion paths).
    Selection(SelectionError),
    /// A candidate could not be mapped to score it (a library without an
    /// inverter or that cannot realize AND2).
    Map(MapError),
    /// A portfolio was run with no member engines.
    NoEngines,
    /// Every portfolio member failed; the message lists the per-engine
    /// errors.
    AllEnginesFailed(String),
}

impl std::fmt::Display for ExtractError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtractError::Unrealizable(id) => {
                write!(f, "root class {id} has no realizable term")
            }
            ExtractError::Selection(e) => write!(f, "invalid selection: {e}"),
            ExtractError::Map(e) => write!(f, "candidate could not be mapped: {e}"),
            ExtractError::NoEngines => write!(f, "portfolio has no engines"),
            ExtractError::AllEnginesFailed(msg) => {
                write!(f, "every portfolio engine failed: {msg}")
            }
        }
    }
}

impl std::error::Error for ExtractError {}

impl From<SelectionError> for ExtractError {
    fn from(e: SelectionError) -> Self {
        ExtractError::Selection(e)
    }
}

impl From<MapError> for ExtractError {
    fn from(e: MapError) -> Self {
        ExtractError::Map(e)
    }
}

/// The result of one engine run: a complete per-class selection, a per-class
/// cost map (the metric the engine optimized, used e.g. to rank choice-class
/// members), and run statistics.
#[derive(Debug, Clone)]
pub struct Extraction {
    /// One chosen e-node per realizable class; complete and acyclic over
    /// every class reachable from the roots.
    pub selection: Selection,
    /// Per-class cost under the engine's metric (tree size, arrival depth,
    /// ...). Keys cover at least every class in `selection`.
    pub class_costs: FxHashMap<Id, u64>,
    /// Work and timing statistics.
    pub stats: ExtractStats,
}

/// One way of extracting a concrete design from a saturated e-graph.
///
/// Implementations must be deterministic for a fixed input and budget, and
/// `Send + Sync` so a [`PortfolioEngine`] can race them on scoped threads.
///
/// # Implementing a custom engine
///
/// An engine only has to produce a complete, acyclic [`Selection`] for every
/// class reachable from the roots. The simplest way is to start from the
/// exact bottom-up DP and post-process it:
///
/// ```
/// use egraph::{EGraph, Id};
/// use emorphic::extract::{
///     BottomUpEngine, ExtractBudget, ExtractError, Extraction, ExtractionCost, ExtractionEngine,
/// };
/// use emorphic::BoolLang;
///
/// /// Prefers the depth-optimal selection but reports tree-size class costs,
/// /// so choice ranking favors small alternatives of a depth-held base.
/// struct DepthBaseSizeRank;
///
/// impl ExtractionEngine for DepthBaseSizeRank {
///     fn name(&self) -> &'static str {
///         "depth-base-size-rank"
///     }
///
///     fn extract(
///         &self,
///         egraph: &EGraph<BoolLang>,
///         roots: &[Id],
///         budget: &ExtractBudget,
///     ) -> Result<Extraction, ExtractError> {
///         let depth = BottomUpEngine::new(ExtractionCost::Depth).extract(egraph, roots, budget)?;
///         let size = BottomUpEngine::new(ExtractionCost::Size).extract(egraph, roots, budget)?;
///         Ok(Extraction {
///             selection: depth.selection,
///             class_costs: size.class_costs,
///             stats: depth.stats,
///         })
///     }
/// }
///
/// let conv = emorphic::aig_to_egraph(&benchgen::adder(3).aig);
/// let result = DepthBaseSizeRank
///     .extract(&conv.egraph, &conv.roots, &ExtractBudget::unlimited())
///     .unwrap();
/// assert!(result.selection.node(conv.roots[0]).is_some());
/// ```
pub trait ExtractionEngine: Send + Sync {
    /// Short stable name used in reports and stats.
    fn name(&self) -> &'static str;

    /// Extracts one design from `egraph` rooted at `roots` under `budget`.
    ///
    /// # Errors
    /// Returns an [`ExtractError`] if a root is unrealizable or the engine
    /// cannot produce a complete selection.
    fn extract(
        &self,
        egraph: &EGraph<BoolLang>,
        roots: &[Id],
        budget: &ExtractBudget,
    ) -> Result<Extraction, ExtractError>;

    /// [`ExtractionEngine::extract`] plus one [`EngineReport`] per engine
    /// involved: a single row here (carrying the error when the run failed),
    /// one row per member for a [`PortfolioEngine`].
    fn extract_with_reports(
        &self,
        egraph: &EGraph<BoolLang>,
        roots: &[Id],
        budget: &ExtractBudget,
    ) -> (Result<Extraction, ExtractError>, Vec<EngineReport>) {
        let result = self.extract(egraph, roots, budget);
        let report = report_for(egraph, roots, self.name(), &result, result.is_ok());
        (result, vec![report])
    }
}

/// Which engine a flow uses (see `FlowConfig::extractor` and
/// `MapFlowConfig::extractor`). The slack-aware and portfolio engines are
/// built directly through [`ExtractionEngine`] (as `repro extract` does).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExtractorKind {
    /// The simulated-annealing extractor guided by the flow's cost model
    /// (the paper's Algorithm 1; the historical default of `emorphic_flow`).
    #[default]
    Sa,
    /// Exact bottom-up DP minimizing the flow's structural tree cost.
    BottomUp,
    /// Greedy refinement under true DAG cost (shared subgraphs charged once).
    GlobalGreedyDag,
}

/// Per-engine outcome of a (portfolio) run.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Engine name.
    pub engine: String,
    /// DAG gate count of the engine's selection (0 when the engine failed or
    /// its selection could not be scored — `error` says why).
    pub size_cost: u64,
    /// Gate depth of the engine's selection (0 when the engine failed or its
    /// selection could not be scored — `error` says why).
    pub depth_cost: u64,
    /// The engine's own statistics.
    pub stats: ExtractStats,
    /// Whether this engine's result was kept.
    pub won: bool,
    /// The error message when the engine failed.
    pub error: Option<String>,
}

/// Builds the report row for a single (non-portfolio) engine run.
fn report_for(
    egraph: &EGraph<BoolLang>,
    roots: &[Id],
    name: &str,
    result: &Result<Extraction, ExtractError>,
    won: bool,
) -> EngineReport {
    match result {
        Ok(extraction) => {
            let size =
                try_selection_cost(egraph, &extraction.selection, roots, ExtractionCost::Size);
            let depth =
                try_selection_cost(egraph, &extraction.selection, roots, ExtractionCost::Depth);
            // An Ok result whose selection cannot be scored (incomplete or
            // cyclic — an engine bug) must not masquerade as a perfect
            // zero-cost extraction: surface the scoring failure as the
            // report's error.
            let error = match (&size, &depth) {
                (Err(e), _) | (_, Err(e)) => Some(format!("selection could not be scored: {e}")),
                _ => None,
            };
            EngineReport {
                engine: name.to_string(),
                size_cost: size.unwrap_or(0),
                depth_cost: depth.unwrap_or(0),
                stats: extraction.stats,
                won,
                error,
            }
        }
        Err(e) => EngineReport {
            engine: name.to_string(),
            size_cost: 0,
            depth_cost: 0,
            stats: ExtractStats::default(),
            won: false,
            error: Some(e.to_string()),
        },
    }
}

/// Exact bottom-up extraction: the greedy DP over a structural tree cost,
/// with solution-space pruning on (worklist) or off (fixpoint sweeps).
///
/// This engine ignores the budget: it is the cheap base every other engine
/// refines from, and a partial DP would not be a valid selection.
#[derive(Debug, Clone, Copy)]
pub struct BottomUpEngine {
    cost: ExtractionCost,
    pruned: bool,
}

impl BottomUpEngine {
    /// An engine minimizing the given structural cost, with pruning on.
    pub fn new(cost: ExtractionCost) -> Self {
        BottomUpEngine { cost, pruned: true }
    }

    /// Toggles solution-space pruning (`false` selects the naive fixpoint
    /// sweeps the Fig. 6 ablation contrasts against; same selection costs,
    /// many more node evaluations).
    #[must_use]
    pub fn with_pruning(mut self, pruned: bool) -> Self {
        self.pruned = pruned;
        self
    }
}

impl ExtractionEngine for BottomUpEngine {
    fn name(&self) -> &'static str {
        match (self.cost, self.pruned) {
            (ExtractionCost::Size, true) => "bottom-up-size",
            (ExtractionCost::Depth, true) => "bottom-up-depth",
            (ExtractionCost::Size, false) => "bottom-up-size-unpruned",
            (ExtractionCost::Depth, false) => "bottom-up-depth-unpruned",
        }
    }

    fn extract(
        &self,
        egraph: &EGraph<BoolLang>,
        roots: &[Id],
        _budget: &ExtractBudget,
    ) -> Result<Extraction, ExtractError> {
        let start = Instant::now();
        let graph = CostGraph::new(egraph);
        let costed = if self.pruned {
            graph.bottom_up(self.cost)
        } else {
            graph.bottom_up_unpruned(self.cost)
        };
        let (selection, class_costs, mut stats) = costed.into_parts();
        for &root in roots {
            let root = egraph.find(root);
            if !selection.choices.contains_key(&root) {
                return Err(ExtractError::Unrealizable(root));
            }
        }
        stats.runtime = start.elapsed();
        Ok(Extraction {
            selection,
            class_costs,
            stats,
        })
    }
}

/// How a [`PortfolioEngine`] scores candidate extractions.
#[derive(Debug, Clone)]
pub enum PortfolioScorer {
    /// Structural score: `(primary, secondary)` = (the given cost, the other
    /// one). Cheap and fully deterministic.
    Structural(ExtractionCost),
    /// Technology-mapped score: each candidate is rebuilt as an AIG
    /// (synthetic port names; mapping ignores names) and costed by
    /// [`try_map_cost`] against the library. `delay_first` picks `(delay,
    /// area)` vs `(area, delay)`.
    Mapped {
        /// The standard-cell library to map against.
        library: CellLibrary,
        /// `true` scores `(delay_ps, area_um2)`, `false` `(area_um2,
        /// delay_ps)`.
        delay_first: bool,
    },
}

impl PortfolioScorer {
    /// Scores one extraction as a `(primary, secondary)` pair (lower wins).
    fn score(
        &self,
        egraph: &EGraph<BoolLang>,
        roots: &[Id],
        extraction: &Extraction,
    ) -> Result<(f64, f64), ExtractError> {
        match self {
            PortfolioScorer::Structural(primary) => {
                let size =
                    try_selection_cost(egraph, &extraction.selection, roots, ExtractionCost::Size)?;
                let depth = try_selection_cost(
                    egraph,
                    &extraction.selection,
                    roots,
                    ExtractionCost::Depth,
                )?;
                Ok(match primary {
                    ExtractionCost::Size => (size as f64, depth as f64),
                    ExtractionCost::Depth => (depth as f64, size as f64),
                })
            }
            PortfolioScorer::Mapped {
                library,
                delay_first,
            } => {
                let aig = selection_to_named_aig(egraph, roots, &extraction.selection)?;
                let (delay, area) = try_map_cost(&aig, library, &MapOptions::default())?;
                Ok(if *delay_first {
                    (delay, area)
                } else {
                    (area, delay)
                })
            }
        }
    }
}

/// Rebuilds a selection as an AIG with synthesized port names (`x<i>` inputs
/// covering every `Var` index in the e-graph, `o<k>` outputs), for scoring
/// purposes where names are irrelevant.
pub(crate) fn selection_to_named_aig(
    egraph: &EGraph<BoolLang>,
    roots: &[Id],
    selection: &Selection,
) -> Result<aig::Aig, ExtractError> {
    let (input_names, output_names) = synthetic_names(egraph, roots.len());
    crate::convert::try_selection_to_aig(
        egraph,
        selection,
        roots,
        &input_names,
        &output_names,
        "extracted",
    )
    .map_err(ExtractError::from)
}

/// Synthesizes `x0..xN` input names (covering the largest `Var` index in the
/// e-graph) and `o0..oK` output names.
pub(crate) fn synthetic_names(
    egraph: &EGraph<BoolLang>,
    num_outputs: usize,
) -> (Vec<String>, Vec<String>) {
    let num_inputs = egraph
        .classes()
        .flat_map(|class| class.nodes.iter())
        .filter_map(|node| match node {
            BoolLang::Var(i) => Some(*i as usize + 1),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let input_names = (0..num_inputs).map(|i| format!("x{i}")).collect();
    let output_names = (0..num_outputs).map(|k| format!("o{k}")).collect();
    (input_names, output_names)
}

/// Races a set of engines on the worker pool ([`egraph::pool`]) and keeps the
/// best result.
///
/// The winner is picked **deterministically**: every engine runs to
/// completion under its budget, all successful results are scored with the
/// configured [`PortfolioScorer`], and the lowest `(primary, secondary,
/// engine index)` triple wins — the fixed engine order breaks exact ties.
pub struct PortfolioEngine {
    engines: Vec<Box<dyn ExtractionEngine>>,
    threads: usize,
    scorer: PortfolioScorer,
}

impl PortfolioEngine {
    /// A portfolio over the given engines, scored structurally by size and
    /// racing one thread per engine.
    pub fn new(engines: Vec<Box<dyn ExtractionEngine>>) -> Self {
        let threads = engines.len().max(1);
        PortfolioEngine {
            engines,
            threads,
            scorer: PortfolioScorer::Structural(ExtractionCost::Size),
        }
    }

    /// Sets the number of worker threads (results are identical for every
    /// value; only wall-clock time changes).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the candidate scorer.
    #[must_use]
    pub fn with_scorer(mut self, scorer: PortfolioScorer) -> Self {
        self.scorer = scorer;
        self
    }
}

impl std::fmt::Debug for PortfolioEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PortfolioEngine")
            .field(
                "engines",
                &self.engines.iter().map(|e| e.name()).collect::<Vec<_>>(),
            )
            .field("threads", &self.threads)
            .field("scorer", &self.scorer)
            .finish()
    }
}

impl ExtractionEngine for PortfolioEngine {
    fn name(&self) -> &'static str {
        "portfolio"
    }

    fn extract(
        &self,
        egraph: &EGraph<BoolLang>,
        roots: &[Id],
        budget: &ExtractBudget,
    ) -> Result<Extraction, ExtractError> {
        self.extract_with_reports(egraph, roots, budget).0
    }

    /// Runs every engine under `budget` and returns the winning extraction
    /// plus one report per engine (in engine order). An empty portfolio is
    /// [`ExtractError::NoEngines`], a race nobody finished
    /// [`ExtractError::AllEnginesFailed`]; both come without reports.
    fn extract_with_reports(
        &self,
        egraph: &EGraph<BoolLang>,
        roots: &[Id],
        budget: &ExtractBudget,
    ) -> (Result<Extraction, ExtractError>, Vec<EngineReport>) {
        if self.engines.is_empty() {
            return (Err(ExtractError::NoEngines), Vec::new());
        }

        // Every task returns `Some`, so flattening keeps slot = engine index.
        let mut results: Vec<Result<Extraction, ExtractError>> = for_each_indexed(
            self.engines.len(),
            self.threads,
            || (),
            |index, ()| Some(self.engines[index].extract(egraph, roots, budget)),
        )
        .into_iter()
        .flatten()
        .collect();

        // Deterministic selection: score successes, lowest
        // (primary, secondary, engine index) wins.
        let mut winner: Option<(usize, (f64, f64))> = None;
        let mut scored: Vec<Option<(f64, f64)>> = Vec::with_capacity(results.len());
        for (index, result) in results.iter().enumerate() {
            // A selection the scorer rejects (an engine bug) loses the race
            // instead of sinking the portfolio.
            let score = result
                .as_ref()
                .ok()
                .and_then(|extraction| self.scorer.score(egraph, roots, extraction).ok());
            if let Some(score) = score {
                let better = match &winner {
                    None => true,
                    // Strict comparison: ties keep the earlier engine.
                    Some((_, best)) => score < *best,
                };
                if better {
                    winner = Some((index, score));
                }
            }
            scored.push(score);
        }

        let Some((winner_index, _)) = winner else {
            let errors: Vec<String> = results
                .iter()
                .enumerate()
                .map(|(i, r)| match r {
                    Ok(_) => format!("{}: unscorable selection", self.engines[i].name()),
                    Err(e) => format!("{}: {e}", self.engines[i].name()),
                })
                .collect();
            let failed = ExtractError::AllEnginesFailed(errors.join("; "));
            return (Err(failed), Vec::new());
        };

        let reports: Vec<EngineReport> = results
            .iter()
            .enumerate()
            .map(|(i, result)| {
                let mut report = report_for(
                    egraph,
                    roots,
                    self.engines[i].name(),
                    result,
                    i == winner_index,
                );
                // `report_for` already flags structurally unscorable
                // selections; this additionally covers scorer-specific
                // failures (e.g. a mapped score over a valid selection).
                if result.is_ok() && scored[i].is_none() && report.error.is_none() {
                    report.error = Some("selection could not be scored".to_string());
                }
                report
            })
            .collect();

        (results.swap_remove(winner_index), reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::test_util::saturated_egraph;
    use crate::extract::{GlobalGreedyDagEngine, SlackAwareEngine};

    fn default_portfolio() -> PortfolioEngine {
        PortfolioEngine::new(vec![
            Box::new(BottomUpEngine::new(ExtractionCost::Size)),
            Box::new(BottomUpEngine::new(ExtractionCost::Depth)),
            Box::new(GlobalGreedyDagEngine::new()),
            Box::new(SlackAwareEngine::new()),
        ])
    }

    #[test]
    fn bottom_up_engine_matches_free_function() {
        let aig = benchgen::adder(4).aig;
        let (egraph, roots) = saturated_egraph(&aig, 3);
        let engine = BottomUpEngine::new(ExtractionCost::Size);
        let extraction = engine
            .extract(&egraph, &roots, &ExtractBudget::unlimited())
            .unwrap();
        let free = CostGraph::new(&egraph)
            .bottom_up(ExtractionCost::Size)
            .selection;
        assert_eq!(extraction.selection.choices, free.choices);
        // The cost map covers the selection and runtime was measured.
        for id in extraction.selection.choices.keys() {
            assert!(extraction.class_costs.contains_key(id));
        }
        assert!(extraction.stats.nodes_evaluated > 0);
        // The provided report path: one row, this engine's, marked as kept.
        let (again, reports) =
            engine.extract_with_reports(&egraph, &roots, &ExtractBudget::unlimited());
        assert_eq!(again.unwrap().selection.choices, free.choices);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].engine, "bottom-up-size");
        assert!(reports[0].won && reports[0].error.is_none());
    }

    #[test]
    fn pruned_and_unpruned_engines_agree_on_root_cost() {
        let aig = benchgen::adder(4).aig;
        let (egraph, roots) = saturated_egraph(&aig, 3);
        let budget = ExtractBudget::unlimited();
        let pruned = BottomUpEngine::new(ExtractionCost::Depth)
            .extract(&egraph, &roots, &budget)
            .unwrap();
        let unpruned = BottomUpEngine::new(ExtractionCost::Depth)
            .with_pruning(false)
            .extract(&egraph, &roots, &budget)
            .unwrap();
        let d_p =
            try_selection_cost(&egraph, &pruned.selection, &roots, ExtractionCost::Depth).unwrap();
        let d_u = try_selection_cost(&egraph, &unpruned.selection, &roots, ExtractionCost::Depth)
            .unwrap();
        assert_eq!(d_p, d_u);
        assert!(pruned.stats.nodes_evaluated <= unpruned.stats.nodes_evaluated);
    }

    #[test]
    fn report_flags_ok_but_unscorable_extraction() {
        let aig = benchgen::adder(3).aig;
        let (egraph, roots) = saturated_egraph(&aig, 2);
        // An engine-bug shape: Ok result with an empty (incomplete) selection.
        let broken = Extraction {
            selection: Selection {
                choices: FxHashMap::default(),
            },
            class_costs: FxHashMap::default(),
            stats: ExtractStats::default(),
        };
        let report = report_for(&egraph, &roots, "broken", &Ok(broken), true);
        assert!(
            report
                .error
                .as_deref()
                .is_some_and(|e| e.contains("could not be scored")),
            "scoring failure must be surfaced, got {:?}",
            report.error
        );
        assert_eq!(report.size_cost, 0);
        assert_eq!(report.depth_cost, 0);
    }

    #[test]
    fn extract_errors_format_usefully() {
        let missing = ExtractError::Selection(SelectionError::Missing(egraph::Id(3)));
        assert!(missing.to_string().contains("invalid selection"));
        assert!(ExtractError::NoEngines.to_string().contains("no engines"));
        let unrealizable = ExtractError::Unrealizable(egraph::Id(7));
        assert!(unrealizable.to_string().contains("no realizable term"));
        let unmappable = ExtractError::from(MapError::MissingInverter);
        assert!(unmappable.to_string().contains("inverter"));
    }

    #[test]
    fn portfolio_is_deterministic_across_thread_counts() {
        let aig = benchgen::adder(5).aig;
        let (egraph, roots) = saturated_egraph(&aig, 3);
        let budget = ExtractBudget::unlimited();
        let serial = default_portfolio()
            .with_threads(1)
            .extract_with_reports(&egraph, &roots, &budget);
        let parallel = default_portfolio()
            .with_threads(4)
            .extract_with_reports(&egraph, &roots, &budget);
        assert_eq!(
            serial.0.unwrap().selection.choices,
            parallel.0.unwrap().selection.choices
        );
        let winner = |reports: &[EngineReport]| {
            reports
                .iter()
                .find(|r| r.won)
                .map(|r| r.engine.clone())
                .unwrap()
        };
        assert_eq!(winner(&serial.1), winner(&parallel.1));
    }

    #[test]
    fn portfolio_never_worse_than_any_member_on_the_score() {
        let aig = benchgen::adder(5).aig;
        let (egraph, roots) = saturated_egraph(&aig, 3);
        let budget = ExtractBudget::unlimited();
        let portfolio = default_portfolio();
        let (best, reports) = portfolio.extract_with_reports(&egraph, &roots, &budget);
        let best_size = try_selection_cost(
            &egraph,
            &best.unwrap().selection,
            &roots,
            ExtractionCost::Size,
        )
        .unwrap();
        for report in &reports {
            assert!(
                report.error.is_none(),
                "{}: {:?}",
                report.engine,
                report.error
            );
            assert!(
                best_size <= report.size_cost
                    || reports.iter().any(|r| r.won && r.size_cost == best_size),
                "portfolio size {best_size} vs {} from {}",
                report.size_cost,
                report.engine
            );
            assert!(best_size <= report.size_cost, "size scorer picks the min");
        }
        assert_eq!(reports.iter().filter(|r| r.won).count(), 1);
    }

    #[test]
    fn empty_portfolio_is_an_error() {
        let aig = benchgen::adder(3).aig;
        let (egraph, roots) = saturated_egraph(&aig, 2);
        let err = PortfolioEngine::new(Vec::new())
            .extract(&egraph, &roots, &ExtractBudget::unlimited())
            .unwrap_err();
        assert!(matches!(err, ExtractError::NoEngines));
        let (result, reports) = PortfolioEngine::new(Vec::new()).extract_with_reports(
            &egraph,
            &roots,
            &ExtractBudget::unlimited(),
        );
        assert!(matches!(result, Err(ExtractError::NoEngines)));
        assert!(reports.is_empty());
    }

    #[test]
    fn the_mapped_scorer_reports_an_unmappable_library_as_a_typed_error() {
        let aig = benchgen::adder(4).aig;
        let (egraph, roots) = saturated_egraph(&aig, 2);
        let budget = ExtractBudget::unlimited();
        let scorer = PortfolioScorer::Mapped {
            library: crate::extract::test_util::library_without_inverter(),
            delay_first: true,
        };
        let extraction = BottomUpEngine::new(ExtractionCost::Size)
            .extract(&egraph, &roots, &budget)
            .unwrap();
        assert_eq!(
            scorer.score(&egraph, &roots, &extraction),
            Err(ExtractError::Map(MapError::MissingInverter))
        );
        // Every member is unscorable, so the race has no winner.
        let result = default_portfolio()
            .with_scorer(scorer)
            .extract(&egraph, &roots, &budget);
        assert!(
            matches!(&result, Err(ExtractError::AllEnginesFailed(_))),
            "{result:?}"
        );
    }

    #[test]
    fn budget_builders_compose() {
        let budget = ExtractBudget::unlimited().with_max_evaluations(100);
        assert_eq!(budget.max_evaluations, Some(100));
        assert!(budget.exhausted(100));
        assert!(!budget.exhausted(99));
    }
}
