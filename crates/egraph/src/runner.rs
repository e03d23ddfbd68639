//! The equality-saturation loop: repeatedly search and apply rewrites until
//! the e-graph saturates or a resource limit is hit.

use crate::{EGraph, Id, Language, MatchScratch, RecExpr, Rewrite, SearchMatches};
use fxhash::FxHashMap;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a [`Runner`] stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// No rewrite produced any new equality — the e-graph is saturated.
    Saturated,
    /// The configured iteration limit was reached.
    IterationLimit,
    /// The configured e-node limit was reached.
    NodeLimit,
    /// The configured wall-clock limit was reached.
    TimeLimit,
    /// The cooperative interrupt flag ([`Runner::with_interrupt`]) was set,
    /// e.g. by a job-server cancellation. Checked at the same points as the
    /// wall-clock limit, so the e-graph is left rebuilt and consistent.
    Interrupted,
}

/// Resource limits for a saturation run.
#[derive(Debug, Clone)]
pub struct RunnerLimits {
    /// Maximum number of rewrite iterations.
    pub iter_limit: usize,
    /// Maximum number of e-nodes before stopping.
    pub node_limit: usize,
    /// Maximum wall-clock time.
    pub time_limit: Duration,
}

impl Default for RunnerLimits {
    fn default() -> Self {
        RunnerLimits {
            iter_limit: 30,
            node_limit: 1_000_000,
            time_limit: Duration::from_secs(60),
        }
    }
}

/// Match-throttling strategy applied per rule per iteration. A `match_limit`
/// of `usize::MAX` applies every match and never bans.
#[derive(Debug, Clone)]
pub enum Scheduler {
    /// Cap matches per rule and temporarily ban rules that exceed the cap,
    /// doubling the ban length on repeated offences (egg's backoff scheduler).
    Backoff {
        /// Maximum matches a rule may apply in one iteration before it is banned.
        match_limit: usize,
        /// Base number of iterations a banned rule sits out.
        ban_length: usize,
    },
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::Backoff {
            match_limit: 1_000,
            ban_length: 2,
        }
    }
}

/// Statistics of one saturation iteration.
#[derive(Debug, Clone)]
pub struct IterationReport {
    /// Iteration index (0-based).
    pub iteration: usize,
    /// Number of e-nodes after the iteration.
    pub egraph_nodes: usize,
    /// Number of e-classes after the iteration.
    pub egraph_classes: usize,
    /// Per-rule number of substitutions the search found (0 for a rule that
    /// sat the iteration out banned). A rule whose count reaches the
    /// scheduler's match limit is banned from the next iterations.
    pub matched: Vec<(String, usize)>,
    /// Per-rule number of unions that changed the e-graph.
    pub applied: Vec<(String, usize)>,
    /// Unions added by congruence during rebuild.
    pub rebuild_unions: usize,
    /// Wall-clock time of the iteration.
    pub elapsed: Duration,
    /// Wall-clock time spent inside [`EGraph::rebuild`] this iteration.
    /// With incremental rebuilding this tracks the *changed region* of the
    /// graph rather than its total size.
    pub rebuild_time: Duration,
    /// Wall-clock time of the (possibly parallel) search phase this
    /// iteration, including the one O(ids + nodes) copy of the e-graph
    /// that the matcher reads (its snapshot) and the candidate-class lists.
    pub search_time: Duration,
    /// `true` when every rule was searched over all of its candidate classes
    /// this iteration (no budget exhaustion, no banned rules); only then can
    /// an all-zero iteration be read as saturation.
    pub search_complete: bool,
}

#[derive(Debug, Clone, Default)]
struct RuleStats {
    bans: usize,
    banned_until: usize,
}

/// Iteration index until which a rule is banned after its `bans`-th offence:
/// `iteration + 1 + ban_length * 2^bans` (egg's exponential backoff), with
/// the exponent capped and all arithmetic saturating. The uncapped shift
/// `ban_length << bans` overflows — and panics in debug builds — once a rule
/// has been banned about 60 times, which a long run with a short `ban_length`
/// reaches easily.
fn backoff_ban_until(iteration: usize, ban_length: usize, bans: usize) -> usize {
    // Cap at the word size so the shift itself stays defined on every
    // target; saturating_mul/add absorb the resulting huge factors.
    const MAX_BAN_SHIFT: usize = usize::BITS as usize - 1;
    let factor = 1usize << bans.min(MAX_BAN_SHIFT);
    iteration
        .saturating_add(1)
        .saturating_add(ban_length.saturating_mul(factor))
}

/// Number of contiguous candidate-class shards each rule's search is split
/// into. Deliberately a constant — never derived from the worker-thread
/// count — so the shard decomposition, and with it every shard's match
/// budget, is identical no matter how many threads execute the shards. That
/// is what makes parallel search bit-identical to serial search.
const SHARDS_PER_RULE: usize = 8;

/// One `(rule × candidate-class-range)` work item of the search phase.
struct SearchJob<'a> {
    rule: usize,
    /// The shard's range of the rule's rotated candidate order: a range of
    /// the unrotated list and, where it wraps around the end, the range that
    /// continues it from the start.
    classes: [&'a [Id]; 2],
    quota: usize,
}

/// The part of `positions` — a range of some longer order in which `ids`
/// occupies the positions from `from` on — that falls inside `ids`.
fn clip(ids: &[Id], from: usize, positions: std::ops::Range<usize>) -> &[Id] {
    let at = |pos: usize| pos.saturating_sub(from).min(ids.len());
    &ids[at(positions.start)..at(positions.end)]
}

/// The merged outcome of one iteration's search phase.
struct SearchOutcome {
    /// Matches per rule, concatenated in shard order (= rotated class order).
    all_matches: Vec<Vec<SearchMatches>>,
    /// Total substitutions found per rule (sums of the per-shard counts).
    totals: Vec<usize>,
    /// `true` when some rule was banned, some shard exhausted its budget, or
    /// the deadline cut shards off — i.e. an all-zero iteration must not be
    /// read as saturation.
    incomplete: bool,
}

/// Searches all non-banned rules over one snapshot of the (immutable)
/// e-graph, sharded into `(rule × class-range)` work items that run on
/// [`crate::pool`], and merges the results in deterministic `(rule index,
/// shard index)` order. The snapshot is built here, shared by every worker
/// and dropped on return, before anything is applied.
///
/// Each rule's per-iteration match budget is split across its shards before
/// any searching starts (quotas sum exactly to `match_limit`), so every
/// shard's result is a pure function of the e-graph and the job — thread
/// scheduling cannot change it. No shard can stop another early either: a
/// rule's total only reaches its budget after every one of its shards has
/// used its full quota.
fn search_phase<L: Language>(
    egraph: &EGraph<L>,
    rewrites: &[Rewrite<L>],
    banned: &[bool],
    match_limit: usize,
    iteration: usize,
    threads: usize,
    stop_requested: &(dyn Fn() -> Option<StopReason> + Sync),
) -> SearchOutcome {
    // The scan start rotates by a fixed odd-prime stride each iteration
    // (staggered per rule) so finite budgets sweep the whole e-graph over
    // time instead of re-finding the same matches in the earliest classes
    // forever. The stride must not be derived from `match_limit` or the
    // class count: if the class count divided the stride, every iteration
    // would restart the scan at the same class.
    const ROTATION_STRIDE: usize = 9973;

    let snapshot = egraph.snapshot();

    // One candidate-class list per distinct left-hand-side root operator:
    // rules with the same root share it, each reading it from its own
    // rotation point.
    let mut candidates: FxHashMap<Option<u64>, Vec<Id>> = FxHashMap::default();
    for (rw, _) in rewrites.iter().zip(banned).filter(|(_, &b)| !b) {
        candidates
            .entry(rw.lhs.root_op_key())
            .or_insert_with(|| rw.lhs.candidate_classes(egraph));
    }

    // Contiguous class-range shards with deterministically split budgets.
    // Never create more shards than the match budget: a quota-0 shard can
    // scan nothing, so it would report an incomplete search on every
    // iteration and make saturation permanently undetectable for small
    // budgets. (`match_limit.max(1)` keeps the degenerate budget-0 case a
    // single — honestly incomplete — shard.)
    let mut jobs: Vec<SearchJob> = Vec::new();
    for (ri, rw) in rewrites.iter().enumerate() {
        let ids = match candidates.get(&rw.lhs.root_op_key()) {
            Some(ids) if !banned[ri] && !ids.is_empty() => ids.as_slice(),
            _ => continue,
        };
        let rotation = iteration
            .wrapping_mul(ROTATION_STRIDE)
            .wrapping_add(ri * 17);
        // The rule scans `ids[split..]`, then wraps around to `ids[..split]`.
        let (wrapped, first) = ids.split_at(rotation % ids.len());
        let shards = SHARDS_PER_RULE.min(ids.len()).min(match_limit.max(1));
        let class_base = ids.len() / shards;
        let class_rem = ids.len() % shards;
        let quota_base = match_limit / shards;
        let quota_rem = match_limit % shards;
        let mut offset = 0;
        for shard in 0..shards {
            let len = class_base + usize::from(shard < class_rem);
            let range = offset..offset + len;
            let classes = [
                clip(first, 0, range.clone()),
                clip(wrapped, first.len(), range),
            ];
            jobs.push(SearchJob {
                rule: ri,
                classes,
                quota: quota_base + usize::from(shard < quota_rem),
            });
            offset += len;
        }
    }

    // One shard per task: its matches and whether the scan was complete. A
    // shard that starts after a stop was requested is skipped; its slot
    // stays `None`, marking the rule incomplete. Each worker matches over
    // its own scratch rows, reused from shard to shard.
    let outputs = crate::pool::for_each_indexed(
        jobs.len(),
        threads,
        || RefCell::new(MatchScratch::default()),
        |i, scratch| {
            let job = &jobs[i];
            stop_requested().is_none().then(|| {
                rewrites[job.rule].lhs.search_snapshot(
                    &snapshot,
                    job.classes.iter().copied().flatten().copied(),
                    job.quota,
                    &mut scratch.borrow_mut(),
                )
            })
        },
    );

    // Deterministic merge: jobs were created in (rule, shard) order, so one
    // stable pass reassembles each rule's matches exactly as a serial scan
    // of the same sharded budgets would produce them.
    let mut all_matches: Vec<Vec<SearchMatches>> =
        (0..rewrites.len()).map(|_| Vec::new()).collect();
    let mut totals = vec![0; rewrites.len()];
    let mut rule_complete = vec![true; rewrites.len()];
    for (job, output) in jobs.iter().zip(outputs) {
        match output {
            Some((matches, complete)) => {
                rule_complete[job.rule] &= complete;
                totals[job.rule] += matches.iter().map(|m| m.substs.len()).sum::<usize>();
                all_matches[job.rule].extend(matches);
            }
            None => rule_complete[job.rule] = false,
        }
    }
    let incomplete = banned.iter().any(|&b| b) || rule_complete.iter().any(|&c| !c);
    SearchOutcome {
        all_matches,
        totals,
        incomplete,
    }
}

/// Drives equality saturation over an [`EGraph`].
#[derive(Debug, Clone)]
pub struct Runner<L: Language> {
    /// The e-graph being saturated.
    pub egraph: EGraph<L>,
    /// Classes of the expressions registered with [`Runner::with_expr`].
    pub roots: Vec<Id>,
    /// Per-iteration statistics, filled in by [`Runner::run`].
    pub iterations: Vec<IterationReport>,
    /// Why the run stopped (`None` before [`Runner::run`]).
    pub stop_reason: Option<StopReason>,
    limits: RunnerLimits,
    scheduler: Scheduler,
    search_threads: usize,
    interrupt: Option<Arc<AtomicBool>>,
}

impl<L: Language> Default for Runner<L> {
    fn default() -> Self {
        Runner {
            egraph: EGraph::new(),
            roots: Vec::new(),
            iterations: Vec::new(),
            stop_reason: None,
            limits: RunnerLimits::default(),
            scheduler: Scheduler::default(),
            search_threads: 1,
            interrupt: None,
        }
    }
}

impl<L: Language> Runner<L> {
    /// Creates a runner around an existing e-graph (used by E-morphic's
    /// DAG-to-DAG conversion, which builds the initial e-graph directly).
    pub fn with_egraph(egraph: EGraph<L>) -> Self {
        Runner {
            egraph,
            ..Runner::default()
        }
    }

    /// Adds an expression to the e-graph and registers its class as a root.
    #[must_use]
    pub fn with_expr(mut self, expr: &RecExpr<L>) -> Self {
        let id = self.egraph.add_expr(expr);
        self.egraph.rebuild();
        self.roots.push(id);
        self
    }

    /// Registers an existing class as a root.
    #[must_use]
    pub fn with_root(mut self, id: Id) -> Self {
        self.roots.push(id);
        self
    }

    /// Sets the iteration limit.
    #[must_use]
    pub fn with_iter_limit(mut self, limit: usize) -> Self {
        self.limits.iter_limit = limit;
        self
    }

    /// Sets the e-node limit.
    #[must_use]
    pub fn with_node_limit(mut self, limit: usize) -> Self {
        self.limits.node_limit = limit;
        self
    }

    /// Sets the wall-clock limit.
    #[must_use]
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.limits.time_limit = limit;
        self
    }

    /// Sets the match scheduler.
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: Scheduler) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Sets the number of worker threads for the search phase (`0` and `1`
    /// both mean serial). Sharding and budget splitting never depend on it,
    /// so under [`crate::pool`]'s contract the search results are the same
    /// for every thread count (a wall-clock limit crossed *mid-search*
    /// excepted, as stated there).
    #[must_use]
    pub fn with_search_threads(mut self, threads: usize) -> Self {
        self.search_threads = threads.max(1);
        self
    }

    /// Installs a cooperative interrupt flag. Setting the flag (from any
    /// thread) stops the run at the next limit checkpoint — between search
    /// shards, between rule applications, and between iterations — with
    /// [`StopReason::Interrupted`]. Like the wall-clock limit, the e-graph
    /// is rebuilt before the runner returns, so a preempted run is still
    /// structurally consistent (just not saturated).
    #[must_use]
    pub fn with_interrupt(mut self, flag: Arc<AtomicBool>) -> Self {
        self.interrupt = Some(flag);
        self
    }

    /// Runs equality saturation with the given rewrites until saturation or a
    /// limit is reached. Consumes and returns the runner so results can be
    /// inspected fluently.
    #[must_use]
    pub fn run(mut self, rewrites: &[Rewrite<L>]) -> Self {
        let start = Instant::now();
        let mut rule_stats: FxHashMap<usize, RuleStats> = FxHashMap::default();
        if self.egraph.is_dirty() {
            self.egraph.rebuild();
        }
        // The interrupt flag and the wall-clock limit, checked together (in
        // this order) between iterations, between search shards and between
        // rule applications.
        let interrupt = self.interrupt.clone();
        let time_limit = self.limits.time_limit;
        let stop_requested = || {
            if interrupt
                .as_ref()
                .is_some_and(|f| f.load(Ordering::Relaxed))
            {
                Some(StopReason::Interrupted)
            } else if start.elapsed() > time_limit {
                Some(StopReason::TimeLimit)
            } else {
                None
            }
        };

        for iteration in 0..self.limits.iter_limit {
            let iter_start = Instant::now();
            if let Some(reason) = stop_requested() {
                self.stop_reason = Some(reason);
                break;
            }

            let Scheduler::Backoff {
                match_limit,
                ban_length,
            } = self.scheduler;

            // Search phase: collect matches for all non-banned rules before
            // applying anything, so the search sees a consistent e-graph.
            // `match_limit` is a *per-rule total* budget, split across the
            // rule's candidate-class shards; `search_phase` runs the shards
            // on `search_threads` workers and merges deterministically.
            let banned: Vec<bool> = (0..rewrites.len())
                .map(|ri| rule_stats.entry(ri).or_default().banned_until > iteration)
                .collect();
            let search_start = Instant::now();
            let outcome = search_phase(
                &self.egraph,
                rewrites,
                &banned,
                match_limit,
                iteration,
                self.search_threads,
                &stop_requested,
            );
            let search_time = search_start.elapsed();
            let all_matches = outcome.all_matches;
            let search_incomplete = outcome.incomplete;
            let matched = rewrites
                .iter()
                .zip(&outcome.totals)
                .map(|(rw, &total)| (rw.name.clone(), total))
                .collect();
            // Backoff banning from the deterministic per-rule match totals.
            for (ri, &total) in outcome.totals.iter().enumerate() {
                if !banned[ri] && total >= match_limit {
                    let stats = rule_stats.entry(ri).or_default();
                    stats.bans += 1;
                    stats.banned_until = backoff_ban_until(iteration, ban_length, stats.bans);
                }
            }

            // Apply phase. Node/time limits are re-checked after every rule
            // so one explosive iteration cannot run unbounded; the e-graph
            // is rebuilt below regardless of where the loop stops.
            let mut applied = Vec::with_capacity(rewrites.len());
            let mut total_changed = 0;
            let mut hit_limit = None;
            for (rw, matches) in rewrites.iter().zip(&all_matches) {
                let changed = rw.apply(&mut self.egraph, matches);
                total_changed += changed;
                applied.push((rw.name.clone(), changed));
                if self.egraph.total_nodes() > self.limits.node_limit {
                    hit_limit = Some(StopReason::NodeLimit);
                    break;
                }
                hit_limit = stop_requested();
                if hit_limit.is_some() {
                    break;
                }
            }
            let rebuild_start = Instant::now();
            let rebuild_unions = self.egraph.rebuild();
            let rebuild_time = rebuild_start.elapsed();

            self.iterations.push(IterationReport {
                iteration,
                egraph_nodes: self.egraph.total_nodes(),
                egraph_classes: self.egraph.num_classes(),
                matched,
                applied,
                rebuild_unions,
                elapsed: iter_start.elapsed(),
                rebuild_time,
                search_time,
                search_complete: !search_incomplete,
            });

            if let Some(reason) = hit_limit {
                self.stop_reason = Some(reason);
                break;
            }
            // Saturation can only be claimed when every rule was searched
            // exhaustively this iteration: a banned rule or a capped search
            // may be hiding pending matches.
            if total_changed == 0 && rebuild_unions == 0 && !search_incomplete {
                self.stop_reason = Some(StopReason::Saturated);
                break;
            }
            if self.egraph.total_nodes() > self.limits.node_limit {
                self.stop_reason = Some(StopReason::NodeLimit);
                break;
            }
            if let Some(reason) = stop_requested() {
                self.stop_reason = Some(reason);
                break;
            }
        }

        if self.stop_reason.is_none() {
            self.stop_reason = Some(StopReason::IterationLimit);
        }
        // Canonicalize roots for downstream extraction.
        for root in &mut self.roots {
            *root = self.egraph.find(*root);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymbolLang;

    fn arith_rules() -> Vec<Rewrite<SymbolLang>> {
        vec![
            Rewrite::parse("comm-add", "(+ ?a ?b)", "(+ ?b ?a)").unwrap(),
            Rewrite::parse("comm-mul", "(* ?a ?b)", "(* ?b ?a)").unwrap(),
            Rewrite::parse("add-zero", "(+ ?a 0)", "?a").unwrap(),
            Rewrite::parse("mul-one", "(* ?a 1)", "?a").unwrap(),
            Rewrite::parse("mul-zero", "(* ?a 0)", "0").unwrap(),
        ]
    }

    #[test]
    fn simplifies_to_symbol() {
        let expr: RecExpr<SymbolLang> = "(+ 0 (* 1 foo))".parse().unwrap();
        let runner = Runner::default().with_expr(&expr).run(&arith_rules());
        assert!(matches!(
            runner.stop_reason,
            Some(StopReason::Saturated) | Some(StopReason::IterationLimit)
        ));
        let foo = runner.egraph.lookup(&SymbolLang::leaf("foo"));
        assert_eq!(foo, Some(runner.roots[0]));
    }

    #[test]
    fn saturation_detected_on_fixed_point() {
        let expr: RecExpr<SymbolLang> = "(+ a b)".parse().unwrap();
        let rules = vec![Rewrite::parse("comm", "(+ ?a ?b)", "(+ ?b ?a)").unwrap()];
        let runner = Runner::default().with_expr(&expr).run(&rules);
        assert_eq!(runner.stop_reason, Some(StopReason::Saturated));
        // Commutativity of a 2-leaf sum saturates after a couple of iterations.
        assert!(runner.iterations.len() <= 3);
    }

    #[test]
    fn node_limit_stops_explosion() {
        // Associativity+commutativity over a chain explodes; the node limit
        // must stop it.
        let expr: RecExpr<SymbolLang> = "(+ a (+ b (+ c (+ d (+ e (+ f g))))))".parse().unwrap();
        let rules = vec![
            Rewrite::parse("comm", "(+ ?a ?b)", "(+ ?b ?a)").unwrap(),
            Rewrite::parse("assoc", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))").unwrap(),
            Rewrite::parse("assoc2", "(+ ?a (+ ?b ?c))", "(+ (+ ?a ?b) ?c)").unwrap(),
        ];
        let runner = Runner::default()
            .with_expr(&expr)
            .with_node_limit(500)
            .with_iter_limit(100)
            .with_scheduler(Scheduler::Backoff {
                match_limit: usize::MAX,
                ban_length: 2,
            })
            .run(&rules);
        assert_eq!(runner.stop_reason, Some(StopReason::NodeLimit));
        assert!(runner.egraph.total_nodes() > 500);
    }

    #[test]
    fn iteration_limit_respected() {
        let expr: RecExpr<SymbolLang> = "(+ a (+ b (+ c (+ d (+ e (+ f g))))))".parse().unwrap();
        let rules = vec![
            Rewrite::parse("comm", "(+ ?a ?b)", "(+ ?b ?a)").unwrap(),
            Rewrite::parse("assoc", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))").unwrap(),
        ];
        let runner = Runner::default()
            .with_expr(&expr)
            .with_iter_limit(2)
            .run(&rules);
        assert!(runner.iterations.len() <= 2);
        assert_eq!(runner.stop_reason, Some(StopReason::IterationLimit));
    }

    #[test]
    fn reports_track_growth() {
        let expr: RecExpr<SymbolLang> = "(* (+ a b) c)".parse().unwrap();
        let rules =
            vec![
                Rewrite::parse("distribute", "(* (+ ?a ?b) ?c)", "(+ (* ?a ?c) (* ?b ?c))")
                    .unwrap(),
            ];
        let runner = Runner::default().with_expr(&expr).run(&rules);
        assert!(!runner.iterations.is_empty());
        let first = &runner.iterations[0];
        assert!(first.egraph_nodes >= 5);
        assert_eq!(first.applied.len(), 1);
        assert!(first.applied[0].1 >= 1);
        // One match found, one union applied, reported under the rule's name.
        assert_eq!(first.matched, [("distribute".to_string(), 1)]);
    }

    #[test]
    fn clipped_parts_spell_the_rotated_order() {
        // Any range of the rotated order `ids[split..] ++ ids[..split]` is
        // its part inside `ids[split..]` followed by its part inside
        // `ids[..split]`.
        let ids: Vec<Id> = (0..7usize).map(Id::from).collect();
        for split in 0..ids.len() {
            let (wrapped, first) = ids.split_at(split);
            let rotated = [first, wrapped].concat();
            for start in 0..=ids.len() {
                for end in start..=ids.len() {
                    let parts = [
                        clip(first, 0, start..end),
                        clip(wrapped, first.len(), start..end),
                    ];
                    assert_eq!(
                        parts.concat(),
                        rotated[start..end],
                        "{split} {start}..{end}"
                    );
                }
            }
        }
    }

    #[test]
    fn saturation_detected_with_budget_smaller_than_shard_count() {
        // Six `*` candidate classes but a match budget of 4 (less than
        // SHARDS_PER_RULE): budget splitting must not create quota-0 shards,
        // which could scan nothing, would report every search incomplete,
        // and would make saturation permanently undetectable.
        let expr: RecExpr<SymbolLang> =
            "(+ (* a b) (+ (* c d) (+ (* e f) (+ (* g h) (+ (* i j) (* k l))))))"
                .parse()
                .unwrap();
        // The pattern's root operator exists (6 candidate classes) but the
        // nested structure never matches, so the e-graph is saturated from
        // the start — provided every shard can actually scan its classes.
        let rules = vec![Rewrite::parse("no-match", "(* (* ?x ?x) ?y)", "?x").unwrap()];
        let runner = Runner::default()
            .with_expr(&expr)
            .with_iter_limit(10)
            .with_scheduler(Scheduler::Backoff {
                match_limit: 4,
                ban_length: 2,
            })
            .run(&rules);
        assert_eq!(runner.stop_reason, Some(StopReason::Saturated));
        assert_eq!(runner.iterations.len(), 1);
    }

    #[test]
    fn backoff_shift_saturates_instead_of_overflowing() {
        // Monotone in the ban count, and capped: past the shift cap the ban
        // length stops growing instead of overflowing (the old `<<` panicked
        // in debug builds around 60 bans).
        let mut prev = 0;
        for bans in 0..200 {
            let until = backoff_ban_until(10, 2, bans);
            assert!(until >= prev, "ban schedule must be monotone");
            prev = until;
        }
        assert_eq!(
            backoff_ban_until(10, 2, 500),
            backoff_ban_until(10, 2, usize::BITS as usize - 1)
        );
        // Saturating arithmetic near the top of the range.
        assert_eq!(backoff_ban_until(usize::MAX, usize::MAX, 1), usize::MAX);
    }

    #[test]
    fn repeated_bans_past_the_shift_cap_do_not_panic() {
        // `ban_length: 0` makes every ban expire immediately, so a rule that
        // keeps matching is re-banned on every iteration and its ban count
        // sails past the former shift-overflow point (~60) within 100
        // iterations.
        let expr: RecExpr<SymbolLang> = "(+ a (+ b (+ c (+ d (+ e (+ f g))))))".parse().unwrap();
        let rules = vec![Rewrite::parse("comm", "(+ ?a ?b)", "(+ ?b ?a)").unwrap()];
        let runner = Runner::default()
            .with_expr(&expr)
            .with_iter_limit(100)
            .with_scheduler(Scheduler::Backoff {
                match_limit: 1,
                ban_length: 0,
            })
            .run(&rules);
        assert_eq!(runner.iterations.len(), 100);
        assert_eq!(runner.stop_reason, Some(StopReason::IterationLimit));
    }

    /// Runs the same saturation twice and asserts every observable outcome
    /// matches: per-iteration reports (modulo wall-clock times), stop reason,
    /// and final e-graph statistics.
    fn assert_runs_identical(threads_a: usize, threads_b: usize) {
        let expr: RecExpr<SymbolLang> = "(* (+ a (+ b c)) (+ d (* e (+ f g))))".parse().unwrap();
        let rules = vec![
            Rewrite::parse("comm-add", "(+ ?a ?b)", "(+ ?b ?a)").unwrap(),
            Rewrite::parse("comm-mul", "(* ?a ?b)", "(* ?b ?a)").unwrap(),
            Rewrite::parse("assoc", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))").unwrap(),
            Rewrite::parse("distribute", "(* ?a (+ ?b ?c))", "(+ (* ?a ?b) (* ?a ?c))").unwrap(),
        ];
        let run = |threads: usize| {
            Runner::default()
                .with_expr(&expr)
                .with_iter_limit(5)
                .with_node_limit(5_000)
                .with_scheduler(Scheduler::Backoff {
                    match_limit: 40,
                    ban_length: 2,
                })
                .with_search_threads(threads)
                .run(&rules)
        };
        let a = run(threads_a);
        let b = run(threads_b);
        assert_eq!(a.stop_reason, b.stop_reason);
        assert_eq!(a.iterations.len(), b.iterations.len());
        for (ia, ib) in a.iterations.iter().zip(&b.iterations) {
            assert_eq!(ia.egraph_nodes, ib.egraph_nodes);
            assert_eq!(ia.egraph_classes, ib.egraph_classes);
            assert_eq!(ia.matched, ib.matched);
            assert_eq!(ia.applied, ib.applied);
            assert_eq!(ia.rebuild_unions, ib.rebuild_unions);
            assert_eq!(ia.search_complete, ib.search_complete);
        }
        assert_eq!(a.egraph.total_nodes(), b.egraph.total_nodes());
        assert_eq!(a.egraph.num_classes(), b.egraph.num_classes());
        assert_eq!(a.egraph.num_unions(), b.egraph.num_unions());
    }

    #[test]
    fn parallel_search_is_bit_identical_to_serial() {
        assert_runs_identical(1, 2);
        assert_runs_identical(1, 4);
        // More workers than jobs is clamped, not an error.
        assert_runs_identical(1, 64);
    }

    #[test]
    fn preset_interrupt_stops_before_first_iteration() {
        let flag = Arc::new(AtomicBool::new(true));
        let expr: RecExpr<SymbolLang> = "(+ a (+ b (+ c (+ d (+ e (+ f g))))))".parse().unwrap();
        let rules = vec![
            Rewrite::parse("comm", "(+ ?a ?b)", "(+ ?b ?a)").unwrap(),
            Rewrite::parse("assoc", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))").unwrap(),
        ];
        let runner = Runner::default()
            .with_expr(&expr)
            .with_interrupt(flag)
            .run(&rules);
        assert_eq!(runner.stop_reason, Some(StopReason::Interrupted));
        assert!(runner.iterations.is_empty());
        // The e-graph is still consistent: the original expression survives.
        assert!(runner.egraph.num_classes() >= 7);
    }

    #[test]
    fn unset_interrupt_flag_changes_nothing() {
        let flag = Arc::new(AtomicBool::new(false));
        let expr: RecExpr<SymbolLang> = "(+ a b)".parse().unwrap();
        let rules = vec![Rewrite::parse("comm", "(+ ?a ?b)", "(+ ?b ?a)").unwrap()];
        let runner = Runner::default()
            .with_expr(&expr)
            .with_interrupt(flag)
            .run(&rules);
        assert_eq!(runner.stop_reason, Some(StopReason::Saturated));
    }

    #[test]
    fn with_egraph_preserves_contents() {
        let mut eg: EGraph<SymbolLang> = EGraph::new();
        let expr: RecExpr<SymbolLang> = "(+ x y)".parse().unwrap();
        let root = eg.add_expr(&expr);
        eg.rebuild();
        let runner = Runner::with_egraph(eg).with_root(root).run(&arith_rules());
        assert!(runner.egraph.num_classes() >= 3);
        assert_eq!(runner.roots.len(), 1);
    }
}
