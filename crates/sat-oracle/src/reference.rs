//! The original minimal CDCL solver, kept as a differential oracle.
//!
//! This is the solver `sat` shipped before the modern engine in its
//! `solver.rs` replaced it: bare clause-index watch lists, a lazy
//! duplicate-pushing `BinaryHeap` for VSIDS, no clause deletion and no
//! learnt-clause minimization. It is deliberately left untouched so property
//! tests can check the new engine against an independent implementation
//! (identical verdicts, models validated by clause evaluation).
//!
//! Do not use it on anything performance-critical: the learnt-clause
//! database grows without bound, so long incremental solving sessions slow
//! down over time, and `SolverStats::learnt_clauses` is a monotone counter
//! here (the reference never deletes, so `deleted_clauses` stays 0).

use sat::{ClauseSink, Lit, SatResult, SolverStats, Var};
use std::collections::BinaryHeap;

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    activity: f64,
    var: Var,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Activities are never NaN; tie-break on the variable index for
        // determinism.
        self.activity
            .partial_cmp(&other.activity)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(self.var.0.cmp(&other.var.0))
    }
}

/// A conflict-driven clause-learning SAT solver.
#[derive(Debug, Clone)]
pub struct ReferenceSolver {
    clauses: Vec<Clause>,
    watches: Vec<Vec<usize>>,
    assigns: Vec<i8>,
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<Option<usize>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    order: BinaryHeap<HeapEntry>,
    seen: Vec<bool>,
    ok: bool,
    /// Maximum number of conflicts before giving up (`None` = unlimited).
    conflict_budget: Option<u64>,
    stats: SolverStats,
}

impl Default for ReferenceSolver {
    fn default() -> Self {
        Self::new()
    }
}

const VAR_DECAY: f64 = 0.95;
const RESCALE_LIMIT: f64 = 1e100;

impl ReferenceSolver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        ReferenceSolver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            order: BinaryHeap::new(),
            seen: Vec::new(),
            ok: true,
            conflict_budget: None,
            stats: SolverStats::default(),
        }
    }

    /// Adds a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let var = Var(self.assigns.len() as u32);
        self.assigns.push(0);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.push(HeapEntry { activity: 0.0, var });
        var
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of clauses (original plus learnt).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Returns accumulated statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Limits the number of conflicts spent in a single [`ReferenceSolver::solve`] call;
    /// when exceeded the call returns [`SatResult::Unknown`].
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.conflict_budget = budget;
    }

    #[inline]
    fn lit_value(&self, lit: Lit) -> i8 {
        let v = self.assigns[lit.var().index()];
        if lit.is_neg() {
            -v
        } else {
            v
        }
    }

    /// Returns the model value of a literal after a [`SatResult::Sat`] answer.
    pub fn value(&self, lit: Lit) -> Option<bool> {
        match self.lit_value(lit) {
            1 => Some(true),
            -1 => Some(false),
            _ => None,
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause. Returns `false` if the solver becomes trivially
    /// unsatisfiable (conflict at decision level zero).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if !self.ok {
            return false;
        }
        // The level-0 simplification below is only sound at level 0; after a
        // Sat answer the trail is still populated, so backtrack first. (The
        // one behavioral fix applied to this otherwise-frozen oracle — the
        // original debug_assert made incremental add/solve interleavings
        // unusable.)
        self.cancel_until(0);
        // Simplify: drop duplicate/false literals; detect tautologies and
        // already-satisfied clauses.
        let mut clause: Vec<Lit> = Vec::with_capacity(lits.len());
        for &lit in lits {
            assert!(
                lit.var().index() < self.num_vars(),
                "literal uses unknown variable"
            );
            match self.lit_value(lit) {
                1 => return true, // already satisfied at level 0
                -1 => continue,   // falsified literal drops out
                _ => {}
            }
            if clause.contains(&!lit) {
                return true; // tautology
            }
            if !clause.contains(&lit) {
                clause.push(lit);
            }
        }
        match clause.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(clause[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_clause(Clause {
                    lits: clause,
                    learnt: false,
                });
                true
            }
        }
    }

    fn attach_clause(&mut self, clause: Clause) -> usize {
        let idx = self.clauses.len();
        self.watches[clause.lits[0].code()].push(idx);
        self.watches[clause.lits[1].code()].push(idx);
        if clause.learnt {
            self.stats.learnt_clauses += 1;
        }
        self.clauses.push(clause);
        idx
    }

    fn enqueue(&mut self, lit: Lit, reason: Option<usize>) {
        debug_assert_eq!(self.lit_value(lit), 0);
        let var = lit.var().index();
        self.assigns[var] = if lit.is_neg() { -1 } else { 1 };
        self.phase[var] = !lit.is_neg();
        self.level[var] = self.decision_level();
        self.reason[var] = reason;
        self.trail.push(lit);
    }

    fn propagate(&mut self) -> Option<usize> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            let mut watch_list = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            while i < watch_list.len() {
                let ci = watch_list[i];
                // Make sure the falsified literal is at position 1.
                if self.clauses[ci].lits[0] == false_lit {
                    self.clauses[ci].lits.swap(0, 1);
                }
                let first = self.clauses[ci].lits[0];
                if self.lit_value(first) == 1 {
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut found = false;
                for k in 2..self.clauses[ci].lits.len() {
                    let candidate = self.clauses[ci].lits[k];
                    if self.lit_value(candidate) != -1 {
                        self.clauses[ci].lits.swap(1, k);
                        self.watches[candidate.code()].push(ci);
                        watch_list.swap_remove(i);
                        found = true;
                        break;
                    }
                }
                if found {
                    continue;
                }
                // Clause is unit or conflicting.
                if self.lit_value(first) == -1 {
                    // Conflict: restore the remaining watches and report.
                    self.watches[false_lit.code()].extend_from_slice(&watch_list);
                    self.qhead = self.trail.len();
                    return Some(ci);
                }
                self.enqueue(first, Some(ci));
                i += 1;
            }
            self.watches[false_lit.code()].extend_from_slice(&watch_list);
        }
        None
    }

    fn bump_var(&mut self, var: Var) {
        self.activity[var.index()] += self.var_inc;
        if self.activity[var.index()] > RESCALE_LIMIT {
            for act in &mut self.activity {
                *act *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.push(HeapEntry {
            activity: self.activity[var.index()],
            var,
        });
    }

    fn decay_activities(&mut self) {
        self.var_inc /= VAR_DECAY;
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, conflict: usize) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for the asserting literal
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut clause_idx = conflict;
        let mut index = self.trail.len();

        loop {
            {
                let lits: Vec<Lit> = {
                    let clause = &self.clauses[clause_idx];
                    let start = usize::from(p.is_some());
                    clause.lits[start..].to_vec()
                };
                for q in lits {
                    let v = q.var();
                    if !self.seen[v.index()] && self.level[v.index()] > 0 {
                        self.seen[v.index()] = true;
                        self.bump_var(v);
                        if self.level[v.index()] == self.decision_level() {
                            counter += 1;
                        } else {
                            learnt.push(q);
                        }
                    }
                }
            }
            // Find the next literal of the current level on the trail.
            loop {
                index -= 1;
                let lit = self.trail[index];
                if self.seen[lit.var().index()] {
                    p = Some(lit);
                    break;
                }
            }
            let p_lit = p.unwrap_or_else(|| unreachable!("found literal"));
            self.seen[p_lit.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !p_lit;
                break;
            }
            clause_idx = self.reason[p_lit.var().index()]
                .unwrap_or_else(|| unreachable!("non-decision literal has a reason"));
        }

        // Clear the seen flags of the literals kept in the learnt clause.
        for lit in &learnt[1..] {
            self.seen[lit.var().index()] = false;
        }

        // Backtrack level: the highest level among the non-asserting literals.
        let backtrack = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        (learnt, backtrack)
    }

    fn cancel_until(&mut self, target_level: u32) {
        if self.decision_level() <= target_level {
            return;
        }
        let bound = self.trail_lim[target_level as usize];
        while self.trail.len() > bound {
            let lit = self
                .trail
                .pop()
                .unwrap_or_else(|| unreachable!("trail non-empty"));
            let var = lit.var();
            self.assigns[var.index()] = 0;
            self.reason[var.index()] = None;
            self.order.push(HeapEntry {
                activity: self.activity[var.index()],
                var,
            });
        }
        self.trail_lim.truncate(target_level as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(entry) = self.order.pop() {
            if self.assigns[entry.var.index()] == 0 {
                return Some(entry.var);
            }
        }
        // Fall back to a linear scan (heap entries are lazy; some unassigned
        // variables may have been popped earlier as duplicates).
        (0..self.num_vars())
            .map(|i| Var(i as u32))
            .find(|v| self.assigns[v.index()] == 0)
    }

    /// The 1-indexed Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, ...
    fn luby(mut i: u64) -> u64 {
        debug_assert!(i >= 1);
        loop {
            let next_pow = (i + 1).next_power_of_two();
            if i + 1 == next_pow {
                return next_pow / 2;
            }
            i -= next_pow / 2 - 1;
        }
    }

    /// Solves the formula with no assumptions.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves the formula under the given assumption literals.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SatResult {
        if !self.ok {
            return SatResult::Unsat;
        }
        self.cancel_until(0);
        let budget_start = self.stats.conflicts;
        let mut restart_idx = 1u64;
        let mut conflicts_until_restart = 100 * Self::luby(restart_idx);

        loop {
            match self.propagate() {
                Some(conflict) => {
                    self.stats.conflicts += 1;
                    if self.decision_level() == 0 {
                        self.ok = false;
                        return SatResult::Unsat;
                    }
                    let (learnt, backtrack) = self.analyze(conflict);
                    self.decay_activities();
                    self.learn(learnt, backtrack);

                    if let Some(budget) = self.conflict_budget {
                        if self.stats.conflicts - budget_start > budget {
                            self.cancel_until(0);
                            return SatResult::Unknown;
                        }
                    }
                    conflicts_until_restart = conflicts_until_restart.saturating_sub(1);
                }
                None => {
                    if conflicts_until_restart == 0 {
                        self.stats.restarts += 1;
                        restart_idx += 1;
                        conflicts_until_restart = 100 * Self::luby(restart_idx);
                        self.cancel_until(0);
                        continue;
                    }
                    // Enqueue pending assumptions as pseudo-decisions.
                    if (self.decision_level() as usize) < assumptions.len() {
                        let p = assumptions[self.decision_level() as usize];
                        match self.lit_value(p) {
                            1 => {
                                // Already satisfied: open a dummy level.
                                self.trail_lim.push(self.trail.len());
                            }
                            -1 => {
                                self.cancel_until(0);
                                return SatResult::Unsat;
                            }
                            _ => {
                                self.trail_lim.push(self.trail.len());
                                self.enqueue(p, None);
                            }
                        }
                        continue;
                    }
                    match self.pick_branch_var() {
                        None => return SatResult::Sat,
                        Some(var) => {
                            self.stats.decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            let lit = Lit::new(var, !self.phase[var.index()]);
                            self.enqueue(lit, None);
                        }
                    }
                }
            }
        }
    }

    fn learn(&mut self, learnt: Vec<Lit>, backtrack: u32) {
        self.cancel_until(backtrack);
        if learnt.len() == 1 {
            self.enqueue(learnt[0], None);
        } else {
            let asserting = learnt[0];
            let idx = self.attach_clause(Clause {
                lits: learnt,
                learnt: true,
            });
            self.enqueue(asserting, Some(idx));
        }
    }
}

impl ClauseSink for ReferenceSolver {
    fn new_var(&mut self) -> Var {
        ReferenceSolver::new_var(self)
    }
    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        ReferenceSolver::add_clause(self, lits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(solver: &mut ReferenceSolver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| Lit::pos(solver.new_var())).collect()
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = ReferenceSolver::new();
        let v = lits(&mut s, 1);
        assert!(s.add_clause(&[v[0]]));
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(v[0]), Some(true));
        assert!(!s.add_clause(&[!v[0]]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = ReferenceSolver::new();
        let _ = s.new_var();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn simple_implication_chain() {
        // (a -> b), (b -> c), a  =>  c must be true.
        let mut s = ReferenceSolver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[!v[0], v[1]]);
        s.add_clause(&[!v[1], v[2]]);
        s.add_clause(&[v[0]]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(v[2]), Some(true));
    }

    #[test]
    fn pigeonhole_two_pigeons_one_hole() {
        // p1h1, p2h1, at most one pigeon per hole -> UNSAT.
        let mut s = ReferenceSolver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0]]);
        s.add_clause(&[v[1]]);
        s.add_clause(&[!v[0], !v[1]]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // Classic PHP(3,2): each pigeon in some hole, no two pigeons share.
        let mut s = ReferenceSolver::new();
        let mut var = |_p: usize, _h: usize| Lit::pos(s.new_var());
        let x: Vec<Vec<Lit>> = (0..3)
            .map(|p| (0..2).map(|h| var(p, h)).collect())
            .collect();
        for pigeon in &x {
            s.add_clause(pigeon);
        }
        for (p1, row1) in x.iter().enumerate() {
            for row2 in &x[(p1 + 1)..] {
                for (&a, &b) in row1.iter().zip(row2) {
                    s.add_clause(&[!a, !b]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn xor_chain_is_satisfiable_with_model() {
        // x1 ^ x2 = 1, x2 ^ x3 = 1, x3 ^ x1 = 0 -> satisfiable.
        let mut s = ReferenceSolver::new();
        let v = lits(&mut s, 3);
        // x1 ^ x2 = 1
        s.add_clause(&[v[0], v[1]]);
        s.add_clause(&[!v[0], !v[1]]);
        // x2 ^ x3 = 1
        s.add_clause(&[v[1], v[2]]);
        s.add_clause(&[!v[1], !v[2]]);
        // x3 ^ x1 = 0 (equal)
        s.add_clause(&[!v[2], v[0]]);
        s.add_clause(&[v[2], !v[0]]);
        assert_eq!(s.solve(), SatResult::Sat);
        let m: Vec<bool> = v.iter().map(|&l| s.value(l).unwrap()).collect();
        assert!(m[0] ^ m[1]);
        assert!(m[1] ^ m[2]);
        assert!(!(m[2] ^ m[0]));
    }

    #[test]
    fn assumptions_flip_outcome() {
        let mut s = ReferenceSolver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0], v[1]]);
        assert_eq!(s.solve_with_assumptions(&[!v[0], !v[1]]), SatResult::Unsat);
        assert_eq!(s.solve_with_assumptions(&[!v[0]]), SatResult::Sat);
        assert_eq!(s.value(v[1]), Some(true));
        // The solver is reusable after assumption-based UNSAT.
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn assumptions_conflicting_with_units() {
        let mut s = ReferenceSolver::new();
        let v = lits(&mut s, 1);
        s.add_clause(&[v[0]]);
        assert_eq!(s.solve_with_assumptions(&[!v[0]]), SatResult::Unsat);
        assert_eq!(s.solve_with_assumptions(&[v[0]]), SatResult::Sat);
    }

    #[test]
    fn random_3sat_small_instances_agree_with_brute_force() {
        // Deterministic LCG so the test is reproducible without rand.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for round in 0..30 {
            let n_vars = 6;
            let n_clauses = 18 + (round % 5);
            let mut clause_set = Vec::new();
            for _ in 0..n_clauses {
                let mut clause = Vec::new();
                for _ in 0..3 {
                    let v = next() % n_vars;
                    let neg = next() % 2 == 1;
                    clause.push((v, neg));
                }
                clause_set.push(clause);
            }
            // Brute force.
            let mut brute_sat = false;
            for assign in 0u32..(1 << n_vars) {
                let ok = clause_set
                    .iter()
                    .all(|cl| cl.iter().any(|&(v, neg)| ((assign >> v) & 1 == 1) != neg));
                if ok {
                    brute_sat = true;
                    break;
                }
            }
            // CDCL.
            let mut s = ReferenceSolver::new();
            let vars: Vec<Var> = (0..n_vars).map(|_| s.new_var()).collect();
            for cl in &clause_set {
                let lits: Vec<Lit> = cl
                    .iter()
                    .map(|&(v, neg)| Lit::new(vars[v as usize], neg))
                    .collect();
                s.add_clause(&lits);
            }
            let res = s.solve();
            assert_eq!(
                res,
                if brute_sat {
                    SatResult::Sat
                } else {
                    SatResult::Unsat
                },
                "round {round} mismatch"
            );
            if res == SatResult::Sat {
                // The reported model must satisfy every clause.
                for cl in &clause_set {
                    assert!(cl
                        .iter()
                        .any(|&(v, neg)| { s.value(Lit::new(vars[v as usize], neg)).unwrap() }));
                }
            }
        }
    }

    fn pigeonhole_solver(holes: usize) -> ReferenceSolver {
        let mut s = ReferenceSolver::new();
        let x: Vec<Vec<Lit>> = (0..=holes)
            .map(|_| (0..holes).map(|_| Lit::pos(s.new_var())).collect())
            .collect();
        for pigeon in &x {
            s.add_clause(pigeon);
        }
        for (p1, row1) in x.iter().enumerate() {
            for row2 in &x[(p1 + 1)..] {
                for (&a, &b) in row1.iter().zip(row2) {
                    s.add_clause(&[!a, !b]);
                }
            }
        }
        s
    }

    #[test]
    fn conflict_budget_returns_unknown() {
        // A hard pigeonhole instance with a tiny budget should give Unknown.
        let mut s = pigeonhole_solver(9);
        s.set_conflict_budget(Some(10));
        assert_eq!(s.solve(), SatResult::Unknown);
    }

    #[test]
    fn pigeonhole_moderate_is_unsat_with_unlimited_budget() {
        // PHP(6, 5) is still exponential for resolution but small enough to
        // finish quickly even in debug builds.
        let mut s = pigeonhole_solver(5);
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn stats_are_collected() {
        let mut s = ReferenceSolver::new();
        let v = lits(&mut s, 4);
        s.add_clause(&[v[0], v[1]]);
        s.add_clause(&[!v[0], v[2]]);
        s.add_clause(&[!v[2], v[3]]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.stats().propagations > 0);
        assert_eq!(s.num_vars(), 4);
        assert!(s.num_clauses() >= 3);
    }
}
