//! The solver's own checkers over its private state: the two-watched-literal
//! scheme, trail/level bookkeeping, the indexed activity heap, and
//! learnt-clause LBD metadata.

use ::audit::{AuditLevel, AuditReport, RuleId, Severity};
use std::collections::BTreeMap;

use super::{Solver, Watcher};
use crate::{Lit, Var};

/// Iterates every literal of a solver with `n` variables.
fn all_lits(n: usize) -> impl Iterator<Item = Lit> {
    (0..n as u32).flat_map(|v| [Lit::pos(Var(v)), Lit::neg(Var(v))])
}

/// Live long clauses as `(cref, literals, learnt, lbd)`. Deleted slots
/// (empty literal vectors on the free list) are skipped.
fn live_clauses(solver: &Solver) -> impl Iterator<Item = (u32, &[Lit], bool, u32)> {
    solver
        .clauses
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.lits.is_empty())
        .map(|(i, c)| (i as u32, c.lits.as_slice(), c.learnt, c.lbd))
}

/// Current assignment of a variable, `None` when unassigned.
fn assign(solver: &Solver, var: Var) -> Option<bool> {
    match solver.assigns[var.index()] {
        1 => Some(true),
        -1 => Some(false),
        _ => None,
    }
}

/// [`RuleId::SatWatchInvariant`]: every live long clause is watched exactly
/// twice — once on each of its first two literals — by watchers whose
/// blockers are clause members; no watcher points at a dead or out-of-range
/// clause; binary watch lists are symmetric and sum to twice the
/// binary-clause count.
fn watch_invariant(solver: &Solver, report: &mut AuditReport) {
    let n = solver.num_vars();
    // (cref, watched-literal slot) -> times seen across all watch lists.
    let mut watch_counts: BTreeMap<(u32, usize), usize> = BTreeMap::new();
    for lit in all_lits(n) {
        for &Watcher { cref, blocker } in &solver.watches[lit.code()] {
            let Some(clause) = solver.clauses.get(cref as usize) else {
                report.push(
                    RuleId::SatWatchInvariant,
                    Severity::Error,
                    format!("watch {lit}"),
                    format!("watcher references clause slot {cref} out of range"),
                );
                continue;
            };
            let lits = clause.lits.as_slice();
            if lits.is_empty() {
                report.push(
                    RuleId::SatWatchInvariant,
                    Severity::Error,
                    format!("watch {lit}"),
                    format!("watcher references deleted clause {cref}"),
                );
                continue;
            }
            let slot = match (lits.first(), lits.get(1)) {
                (Some(&w0), _) if w0 == lit => 0,
                (_, Some(&w1)) if w1 == lit => 1,
                _ => {
                    report.push(
                        RuleId::SatWatchInvariant,
                        Severity::Error,
                        format!("clause {cref}"),
                        format!("watched on {lit}, which is not one of its first two literals"),
                    );
                    continue;
                }
            };
            if !lits.contains(&blocker) {
                report.push(
                    RuleId::SatWatchInvariant,
                    Severity::Error,
                    format!("clause {cref}"),
                    format!("blocker {blocker} is not a member of the clause"),
                );
            }
            *watch_counts.entry((cref, slot)).or_insert(0) += 1;
        }
    }
    for (cref, lits, _, _) in live_clauses(solver) {
        for slot in [0usize, 1] {
            let count = watch_counts.get(&(cref, slot)).copied().unwrap_or(0);
            if count != 1 {
                report.push(
                    RuleId::SatWatchInvariant,
                    Severity::Error,
                    format!("clause {cref}"),
                    format!(
                        "literal {} (slot {slot}) carries {count} watcher(s); expected exactly 1",
                        lits.get(slot)
                            .map_or_else(|| "?".to_string(), Lit::to_string)
                    ),
                );
            }
        }
    }
    // Binary watch lists: symmetric multiset, 2 entries per binary clause.
    let mut total_bin = 0usize;
    for lit in all_lits(n) {
        let partners = &solver.bin_watches[lit.code()];
        total_bin += partners.len();
        for &partner in partners {
            if partner.var().index() >= n {
                report.push(
                    RuleId::SatWatchInvariant,
                    Severity::Error,
                    format!("binary watch {lit}"),
                    format!("partner {partner} uses an unknown variable"),
                );
                continue;
            }
            let back = solver.bin_watches[partner.code()]
                .iter()
                .filter(|&&l| l == lit)
                .count();
            let forth = partners.iter().filter(|&&l| l == partner).count();
            if back != forth {
                report.push(
                    RuleId::SatWatchInvariant,
                    Severity::Error,
                    format!("binary watch {lit}"),
                    format!("{lit} lists {partner} {forth} time(s) but {partner} lists {lit} {back} time(s)"),
                );
            }
        }
    }
    if total_bin != 2 * solver.num_bin {
        report.push(
            RuleId::SatWatchInvariant,
            Severity::Error,
            "binary watches",
            format!(
                "{total_bin} binary watch entries for {} binary clauses (expected {})",
                solver.num_bin,
                2 * solver.num_bin
            ),
        );
    }
}

/// [`RuleId::SatTrailConsistent`]: the trail holds each variable at most
/// once, every trail literal is assigned true at the level of its segment,
/// every assigned variable is on the trail, and `qhead`/`trail_lim` stay in
/// bounds.
fn trail_consistent(solver: &Solver, report: &mut AuditReport) {
    let n = solver.num_vars();
    let trail = &solver.trail;
    let lim = &solver.trail_lim;
    if solver.qhead > trail.len() {
        report.push(
            RuleId::SatTrailConsistent,
            Severity::Error,
            "qhead",
            format!(
                "propagation head {} beyond trail length {}",
                solver.qhead,
                trail.len()
            ),
        );
    }
    for window in lim.windows(2) {
        if window[0] > window[1] {
            report.push(
                RuleId::SatTrailConsistent,
                Severity::Error,
                "trail_lim",
                format!(
                    "level starts {} and {} are not monotone",
                    window[0], window[1]
                ),
            );
        }
    }
    if lim.last().is_some_and(|&last| last > trail.len()) {
        report.push(
            RuleId::SatTrailConsistent,
            Severity::Error,
            "trail_lim",
            format!(
                "last level start {} beyond trail length {}",
                lim[lim.len() - 1],
                trail.len()
            ),
        );
    }
    let mut on_trail = vec![false; n];
    for (pos, &lit) in trail.iter().enumerate() {
        let location = format!("trail[{pos}]");
        if lit.var().index() >= n {
            report.push(
                RuleId::SatTrailConsistent,
                Severity::Error,
                location,
                format!("literal {lit} uses an unknown variable"),
            );
            continue;
        }
        if on_trail[lit.var().index()] {
            report.push(
                RuleId::SatTrailConsistent,
                Severity::Error,
                location.clone(),
                format!("variable of {lit} appears twice on the trail"),
            );
        }
        on_trail[lit.var().index()] = true;
        if assign(solver, lit.var()) != Some(!lit.is_neg()) {
            report.push(
                RuleId::SatTrailConsistent,
                Severity::Error,
                location.clone(),
                format!("{lit} is on the trail but not assigned true"),
            );
        }
        // The decision level of a trail position is the number of level
        // starts at or before it.
        let expected_level = lim.iter().filter(|&&start| start <= pos).count() as u32;
        if solver.level[lit.var().index()] != expected_level {
            report.push(
                RuleId::SatTrailConsistent,
                Severity::Error,
                location,
                format!(
                    "stored level {} disagrees with trail segment {expected_level}",
                    solver.level[lit.var().index()]
                ),
            );
        }
    }
    for (index, &seen) in on_trail.iter().enumerate().take(n) {
        let var = Var(index as u32);
        if assign(solver, var).is_some() && !seen {
            report.push(
                RuleId::SatTrailConsistent,
                Severity::Error,
                format!("var {index}"),
                "variable is assigned but absent from the trail",
            );
        }
    }
}

/// [`RuleId::SatHeapIndex`]: `heap` and `heap_pos` agree bidirectionally,
/// every unassigned variable is in the heap, and the max-heap property holds
/// under the solver's ordering (higher activity wins, ties to the smaller
/// variable index).
fn heap_index(solver: &Solver, report: &mut AuditReport) {
    let n = solver.num_vars();
    let heap = &solver.heap;
    for (i, &var) in heap.iter().enumerate() {
        if var.index() >= n {
            report.push(
                RuleId::SatHeapIndex,
                Severity::Error,
                format!("heap[{i}]"),
                format!("holds unknown variable {}", var.index()),
            );
            continue;
        }
        if solver.heap_pos[var.index()] != i as i32 {
            report.push(
                RuleId::SatHeapIndex,
                Severity::Error,
                format!("heap[{i}]"),
                format!(
                    "variable {} has heap_pos {}, expected {i}",
                    var.index(),
                    solver.heap_pos[var.index()]
                ),
            );
        }
    }
    // Mirrors the solver's `heap_better`: higher activity first, ties
    // broken toward the smaller variable index.
    let better = |a: Var, b: Var| {
        let (aa, ba) = (solver.activity[a.index()], solver.activity[b.index()]);
        aa > ba || (aa == ba && a.index() < b.index())
    };
    for i in 1..heap.len() {
        let parent = (i - 1) / 2;
        if heap[i].index() < n && heap[parent].index() < n && better(heap[i], heap[parent]) {
            report.push(
                RuleId::SatHeapIndex,
                Severity::Error,
                format!("heap[{i}]"),
                format!(
                    "variable {} outranks its parent {} (max-heap property violated)",
                    heap[i].index(),
                    heap[parent].index()
                ),
            );
        }
    }
    for index in 0..n {
        let var = Var(index as u32);
        let pos = solver.heap_pos[var.index()];
        if pos >= 0 && heap.get(pos as usize) != Some(&var) {
            report.push(
                RuleId::SatHeapIndex,
                Severity::Error,
                format!("var {index}"),
                format!("heap_pos {pos} does not point back at the variable"),
            );
        }
        if assign(solver, var).is_none() && pos < 0 {
            report.push(
                RuleId::SatHeapIndex,
                Severity::Error,
                format!("var {index}"),
                "unassigned variable is missing from the decision heap",
            );
        }
    }
}

/// [`RuleId::SatLbdBounds`]: every live learnt long clause stores a
/// literal-block distance between 1 and its length (the LBD counts distinct
/// decision levels among the clause's literals).
fn lbd_bounds(solver: &Solver, report: &mut AuditReport) {
    for (cref, lits, learnt, lbd) in live_clauses(solver) {
        if !learnt {
            continue;
        }
        if lbd < 1 || lbd as usize > lits.len() {
            report.push(
                RuleId::SatLbdBounds,
                Severity::Error,
                format!("clause {cref}"),
                format!("learnt clause of length {} stores LBD {lbd}", lits.len()),
            );
        }
    }
}

/// Audits a solver's internal state with all four rules at the given level
/// (every one is cheap relative to solving).
pub fn audit_solver(solver: &Solver, level: AuditLevel) -> AuditReport {
    let mut report = AuditReport::new();
    if level != AuditLevel::Off {
        report.run(|r| watch_invariant(solver, r));
        report.run(|r| trail_consistent(solver, r));
        report.run(|r| heap_index(solver, r));
        report.run(|r| lbd_bounds(solver, r));
    }
    report
}

/// Mutation tests: each starts from a clean solver, corrupts one private
/// field directly, and asserts the expected rule fires.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::SatResult;

    fn assert_clean(stage: &str, report: &AuditReport) {
        assert!(report.is_clean(), "{stage} audit not clean:\n{report}");
    }

    fn solver_with_long_clause() -> (Solver, Vec<Var>) {
        let mut solver = Solver::new();
        let vars: Vec<Var> = (0..3).map(|_| solver.new_var()).collect();
        assert!(solver.add_clause(&[Lit::pos(vars[0]), Lit::pos(vars[1]), Lit::pos(vars[2])]));
        assert_clean("solver base", &audit_solver(&solver, AuditLevel::Paranoid));
        (solver, vars)
    }

    #[test]
    fn sat_watch_invariant_fires_on_dropped_watcher() {
        let (mut solver, vars) = solver_with_long_clause();
        // Drop the head watcher of every literal's list: the single long
        // clause loses both of its watchers.
        for &v in &vars {
            for lit in [Lit::pos(v), Lit::neg(v)] {
                let watchers = &mut solver.watches[lit.code()];
                if !watchers.is_empty() {
                    watchers.remove(0);
                }
            }
        }
        let report = audit_solver(&solver, AuditLevel::Paranoid);
        assert_eq!(report.fired_rules(), vec![RuleId::SatWatchInvariant]);
    }

    #[test]
    fn sat_trail_consistent_fires_on_wrong_level() {
        let mut solver = Solver::new();
        let v = solver.new_var();
        assert!(solver.add_clause(&[Lit::pos(v)]));
        assert_clean("solver base", &audit_solver(&solver, AuditLevel::Paranoid));

        // The unit sits in the level-0 trail segment but claims level 3.
        solver.level[v.index()] = 3;
        let report = audit_solver(&solver, AuditLevel::Paranoid);
        assert_eq!(report.fired_rules(), vec![RuleId::SatTrailConsistent]);
    }

    #[test]
    fn sat_heap_index_fires_on_desynced_positions() {
        let mut solver = Solver::new();
        for _ in 0..3 {
            solver.new_var();
        }
        assert_clean("solver base", &audit_solver(&solver, AuditLevel::Paranoid));
        // Swap the first two heap entries without updating `heap_pos`.
        solver.heap.swap(0, 1);
        let report = audit_solver(&solver, AuditLevel::Paranoid);
        assert_eq!(report.fired_rules(), vec![RuleId::SatHeapIndex]);
    }

    #[test]
    fn sat_lbd_bounds_fires_on_absurd_lbd() {
        let (mut solver, vars) = solver_with_long_clause();
        // A learnt long clause attached with a stored LBD no clause of
        // length 3 can have, bypassing `compute_lbd`.
        let lits = vec![Lit::neg(vars[0]), Lit::neg(vars[1]), Lit::neg(vars[2])];
        let cref = solver.attach_clause(lits, true, 99);
        solver.learnts.push(cref);
        let report = audit_solver(&solver, AuditLevel::Paranoid);
        assert_eq!(report.fired_rules(), vec![RuleId::SatLbdBounds]);
    }

    /// Four variables outside the scope — created first, so on equal
    /// activity a scoped search pops them before any scope variable and
    /// must stash them — each implied by a scope literal, then
    /// pigeonhole(`pigeons`, `holes`) as the scope.
    fn scoped_pigeonhole(pigeons: usize, holes: usize) -> (Solver, Vec<Var>, Vec<Var>) {
        let mut solver = Solver::new();
        let outside: Vec<Var> = (0..4).map(|_| solver.new_var()).collect();
        let x: Vec<Vec<Lit>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| Lit::pos(solver.new_var())).collect())
            .collect();
        for pigeon in &x {
            solver.add_clause(pigeon);
        }
        for (p1, row1) in x.iter().enumerate() {
            for row2 in &x[(p1 + 1)..] {
                for (&a, &b) in row1.iter().zip(row2) {
                    solver.add_clause(&[!a, !b]);
                }
            }
        }
        for (i, &o) in outside.iter().enumerate() {
            solver.add_clause(&[!x[0][i % holes], Lit::pos(o)]);
        }
        let scope = x.iter().flatten().map(|l| l.var()).collect();
        (solver, scope, outside)
    }

    #[test]
    fn scoped_solves_leave_a_clean_solver() {
        for (pigeons, holes, budget, expected) in [
            (2, 2, None, SatResult::Sat),
            (4, 3, None, SatResult::Unsat),
            (10, 9, Some(10), SatResult::Unknown),
        ] {
            let (mut solver, scope, outside) = scoped_pigeonhole(pigeons, holes);
            solver.set_conflict_budget(budget);
            assert_eq!(solver.solve_within(&[], &scope), expected);
            assert_clean(
                &format!("after a scoped {expected:?}"),
                &audit_solver(&solver, AuditLevel::Paranoid),
            );
            if expected == SatResult::Sat {
                // The model stops at the scope: nothing outside was decided
                // or implied.
                for &o in &outside {
                    assert_eq!(solver.value(Lit::pos(o)), None);
                }
            }
        }
    }
}
